package orthoq

import (
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// updateAPI rewrites testdata/api.golden from the package under test.
// The committed file was generated on the parent commit of the
// plan-identity refactor (DESIGN §19), so passing without the flag is
// the proof that the refactor froze the public surface.
var updateAPI = flag.Bool("update-api", false, "rewrite testdata/api.golden")

const apiGoldenPath = "testdata/api.golden"

// publicAPI type-checks the non-test files of the package in dir and
// renders every exported identifier with its signature: package-level
// consts, vars and funcs, and for each exported type its alias target
// or kind, exported struct fields, and exported methods (value and
// pointer receivers). Unexported fields and methods are deliberately
// absent — they are free to change.
func publicAPI(t *testing.T, dir string) string {
	t.Helper()
	fset := token.NewFileSet()
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := conf.Check("orthoq", fset, files, nil)
	if err != nil {
		t.Fatal(err)
	}
	qual := func(other *types.Package) string {
		if other == pkg {
			return ""
		}
		return other.Path()
	}
	var lines []string
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		tn, isType := obj.(*types.TypeName)
		if !isType {
			lines = append(lines, types.ObjectString(obj, qual))
			continue
		}
		if tn.IsAlias() {
			lines = append(lines, fmt.Sprintf("type %s = %s", name, types.TypeString(types.Unalias(tn.Type()), qual)))
			continue
		}
		st, isStruct := tn.Type().Underlying().(*types.Struct)
		if !isStruct {
			lines = append(lines, fmt.Sprintf("type %s %s", name, types.TypeString(tn.Type().Underlying(), qual)))
		} else {
			lines = append(lines, fmt.Sprintf("type %s struct", name))
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					lines = append(lines, fmt.Sprintf("field %s.%s %s", name, f.Name(), types.TypeString(f.Type(), qual)))
				}
			}
		}
		ms := types.NewMethodSet(types.NewPointer(tn.Type()))
		for i := 0; i < ms.Len(); i++ {
			if m := ms.At(i).Obj(); m.Exported() {
				lines = append(lines, fmt.Sprintf("method %s.%s%s", name, m.Name(),
					strings.TrimPrefix(types.TypeString(m.Type(), qual), "func")))
			}
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// TestPublicAPIGolden: the exported surface of package orthoq —
// every identifier, field and signature — matches the golden generated
// on the parent of the plan-identity refactor.
func TestPublicAPIGolden(t *testing.T) {
	got := publicAPI(t, ".")
	if *updateAPI {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(apiGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(apiGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	have := map[string]bool{}
	for _, l := range strings.Split(got, "\n") {
		have[l] = true
	}
	wanted := map[string]bool{}
	for _, l := range strings.Split(string(want), "\n") {
		wanted[l] = true
		if !have[l] {
			t.Errorf("removed or changed: %s", l)
		}
	}
	for l := range have {
		if !wanted[l] {
			t.Errorf("added or changed: %s", l)
		}
	}
}
