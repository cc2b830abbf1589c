// Command orthoq-explain shows every compilation stage for a query
// against the TPC-H schema: the algebrized mixed scalar/relational
// tree (paper §2.1 / Figure 3), the Apply form (§2.2 / Figure 2), the
// decorrelated and simplified normal form (§2.3 / Figure 5), and the
// cost-based plan (§3-4), with per-node cardinality/cost estimates.
//
// Usage:
//
//	orthoq-explain [-sf 0.01] [-q Q17]          # a named TPC-H query
//	orthoq-explain 'select ... from ...'        # ad-hoc SQL
//	orthoq-explain -corr 'select ...'           # keep correlations
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"orthoq"
)

func main() {
	sf := flag.Float64("sf", 0.01, "TPC-H scale factor (for statistics)")
	seed := flag.Int64("seed", 1, "generator seed")
	qname := flag.String("q", "", "named TPC-H query (Q1, Q2, Q4, Q6, Q11, Q15, Q16, Q17, Q18, Q20, Q21, Q22)")
	corr := flag.Bool("corr", false, "keep correlations (skip decorrelation)")
	class2 := flag.Bool("class2", false, "remove class-2 subqueries (identities (5)-(7))")
	flag.Parse()

	var sql string
	switch {
	case *qname != "":
		q, ok := orthoq.TPCHQuery(strings.ToUpper(*qname))
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown query %q; have %v\n", *qname, orthoq.TPCHQueryNames())
			os.Exit(1)
		}
		sql = q
	case flag.NArg() == 1:
		sql = flag.Arg(0)
	default:
		fmt.Fprintln(os.Stderr, "usage: orthoq-explain [-q Qn] | orthoq-explain '<sql>'")
		os.Exit(1)
	}

	db, err := orthoq.OpenTPCH(*sf, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	cfg := orthoq.DefaultConfig()
	cfg.Decorrelate = !*corr
	cfg.RemoveClass2 = *class2
	out, err := db.Explain(sql, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(out)
}
