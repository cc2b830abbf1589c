// The benchmark is a module of its own so that it builds from its own
// directory; the path under orthoq/ is what lets it import the engine's
// internal packages.
module orthoq/perfbench

go 1.24

require orthoq v0.0.0

replace orthoq => ../
