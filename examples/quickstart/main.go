// Quickstart: open a generated TPC-H database, run the paper's running
// example (a correlated scalar-aggregate subquery), and look at how the
// optimizer transformed it.
package main

import (
	"fmt"
	"log"

	"orthoq"
)

func main() {
	// A deterministic TPC-H instance at scale factor 0.005
	// (~750 customers, ~7.5k orders, ~30k lineitems).
	db, err := orthoq.OpenTPCH(0.005, 42)
	if err != nil {
		log.Fatal(err)
	}

	// The paper's Q1: customers who ordered more than $1,000,000,
	// written with a correlated subquery.
	const q = `
		select c_custkey, c_name
		from customer
		where 1000000 <
			(select sum(o_totalprice)
			 from orders
			 where o_custkey = c_custkey)
		order by c_custkey
		limit 10`

	rows, err := db.Query(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Customers with more than $1,000,000 ordered:")
	fmt.Println(rows.Table())
	fmt.Printf("(%d rows in %v; optimizer explored %d expressions)\n\n",
		len(rows.Data), rows.Elapsed, rows.OptimizerSteps)

	// The same query through each compilation stage: algebrized tree
	// with the subquery inside the filter scalar, Apply introduction,
	// decorrelated normal form, and the cost-based pick.
	explain, err := db.Explain(q, orthoq.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(explain)

	// Equivalent formulations produce the same plan — the paper's
	// "syntax-independence". Spell the query with a derived table
	// instead of a subquery:
	const q2 = `
		select c_custkey, c_name
		from customer,
			(select o_custkey, sum(o_totalprice) as total
			 from orders group by o_custkey) as agg
		where o_custkey = c_custkey and total > 1000000
		order by c_custkey
		limit 10`
	rows2, err := db.Query(q2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Same question, derived-table spelling — same answer:")
	fmt.Println(rows2.Table())
}
