// Command orthoq-shell is an interactive SQL shell over a generated
// TPC-H database.
//
// Usage:
//
//	orthoq-shell [-sf 0.01] [-seed 1]
//	orthoq-shell -connect http://localhost:8080   # client mode against orthoq-server
//
// Shell commands:
//
//	\q                quit
//	\tables           list tables with row counts
//	\explain <sql>    show all compilation stages for a query
//	\plan on|off      toggle printing the executed plan
//	\config           show the active optimizer configuration
//	\set <flag> on|off  toggle a Config flag (decorrelate, ojsimplify,
//	                  costbased, gbreorder, localagg, segment,
//	                  joinreorder, correintro, class2)
//	<sql>;            execute SQL (newlines allowed; ; terminates)
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"orthoq"
)

func main() {
	sf := flag.Float64("sf", 0.01, "TPC-H scale factor")
	seed := flag.Int64("seed", 1, "generator seed")
	connect := flag.String("connect", "", "connect to a running orthoq-server (e.g. http://localhost:8080) instead of embedding the engine")
	flag.Parse()

	if *connect != "" {
		remoteShell(*connect)
		return
	}

	fmt.Printf("generating TPC-H at SF %g (seed %d)...\n", *sf, *seed)
	db, err := orthoq.OpenTPCH(*sf, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println("ready. \\q to quit, \\tables to list tables, ; to run SQL.")

	cfg := orthoq.DefaultConfig()
	showPlan := false
	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder

	prompt := func() {
		if buf.Len() == 0 {
			fmt.Print("orthoq> ")
		} else {
			fmt.Print("   ...> ")
		}
	}
	prompt()
	for in.Scan() {
		line := in.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, "\\") {
			if !command(db, &cfg, &showPlan, trimmed) {
				return
			}
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if strings.Contains(line, ";") {
			sql := strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(buf.String()), ";"))
			buf.Reset()
			if sql != "" {
				run(db, cfg, showPlan, sql)
			}
		}
		prompt()
	}
}

func run(db *orthoq.DB, cfg orthoq.Config, showPlan bool, sql string) {
	rows, err := db.QueryCfg(sql, cfg)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Print(rows.Table())
	fmt.Printf("(%d rows, %v", len(rows.Data), rows.Elapsed)
	if rows.OptimizerSteps > 0 {
		fmt.Printf(", %d expressions explored", rows.OptimizerSteps)
	}
	fmt.Println(")")
	if showPlan {
		fmt.Println(rows.Plan)
	}
}

// command handles one backslash command; false means quit.
func command(db *orthoq.DB, cfg *orthoq.Config, showPlan *bool, line string) bool {
	fields := strings.Fields(line)
	switch fields[0] {
	case "\\q", "\\quit":
		return false
	case "\\tables":
		for _, t := range db.Catalog().Tables() {
			rows, _ := db.QueryCfg("select count(*) as n from "+t.Name, orthoq.Config{})
			n := "?"
			if rows != nil && len(rows.Data) == 1 {
				n = rows.Data[0][0].String()
			}
			fmt.Printf("  %-10s %8s rows, %d columns\n", t.Name, n, len(t.Columns))
		}
	case "\\plan":
		*showPlan = len(fields) > 1 && fields[1] == "on"
		fmt.Println("plan printing:", *showPlan)
	case "\\config":
		fmt.Printf("%+v\n", *cfg)
	case "\\analyze":
		sql := strings.TrimSpace(strings.TrimPrefix(line, "\\analyze"))
		sql = strings.TrimSuffix(sql, ";")
		rows, err := db.QueryAnalyze(sql, *cfg)
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		fmt.Print(rows.Table())
		fmt.Println(rows.Trace)
	case "\\explain":
		sql := strings.TrimSpace(strings.TrimPrefix(line, "\\explain"))
		sql = strings.TrimSuffix(sql, ";")
		out, err := db.Explain(sql, *cfg)
		if err != nil {
			fmt.Println("error:", err)
		} else {
			fmt.Println(out)
		}
	case "\\set":
		if len(fields) != 3 {
			fmt.Println("usage: \\set <flag> on|off")
			break
		}
		on := fields[2] == "on"
		switch fields[1] {
		case "decorrelate":
			cfg.Decorrelate = on
		case "ojsimplify":
			cfg.SimplifyOuterJoins = on
		case "costbased":
			cfg.CostBased = on
		case "gbreorder":
			cfg.GroupByReorder = on
		case "localagg":
			cfg.LocalAgg = on
		case "segment":
			cfg.SegmentApply = on
		case "joinreorder":
			cfg.JoinReorder = on
		case "correintro":
			cfg.CorrelatedReintro = on
		case "class2":
			cfg.RemoveClass2 = on
		default:
			fmt.Println("unknown flag:", fields[1])
			return true
		}
		fmt.Printf("%s = %v\n", fields[1], on)
	default:
		fmt.Println("unknown command:", fields[0])
	}
	return true
}
