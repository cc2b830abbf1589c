package tpch

import (
	"fmt"
	"math/rand"

	"orthoq/internal/sql/types"
	"orthoq/internal/storage"
)

// Generation follows the shape of TPC-H dbgen at reduced scale:
// the same table ratios, key structures, and value distributions that
// the paper's queries are sensitive to (brands, containers, dates,
// per-part lineitem counts), generated deterministically from a seed.
const (
	baseSupplier = 10_000
	baseCustomer = 150_000
	basePart     = 200_000
	baseOrders   = 1_500_000
)

var (
	regions = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}
	nations = []string{
		"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA",
		"FRANCE", "GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN",
		"JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE", "PERU", "CHINA",
		"ROMANIA", "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM",
		"UNITED STATES",
	}
	segments   = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	priorities = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	containers = crossJoinWords(
		[]string{"SM", "LG", "MED", "JUMBO", "WRAP"},
		[]string{"CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"})
	typeSyl1  = []string{"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"}
	typeSyl2  = []string{"ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"}
	typeSyl3  = []string{"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"}
	shipModes = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
	instructs = []string{"DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"}
	partNouns = []string{"almond", "antique", "aquamarine", "azure", "beige", "bisque",
		"black", "blanched", "blue", "blush", "brown", "burlywood", "chartreuse"}
)

func crossJoinWords(a, b []string) []string {
	var out []string
	for _, x := range a {
		for _, y := range b {
			out = append(out, x+" "+y)
		}
	}
	return out
}

// epochDay converts a date string to day count, panicking on bad input
// (all inputs are compile-time constants).
func epochDay(s string) int64 { return types.MustDate(s).Days() }

var (
	startDate = epochDay("1992-01-01")
	endDate   = epochDay("1998-08-02")
)

// Generate builds a populated, indexed store at the given scale
// factor. The same (sf, seed) pair always produces identical data.
func Generate(sf float64, seed int64) (*storage.Store, error) {
	rnd := rand.New(rand.NewSource(seed))
	st := storage.NewFromCatalog(Schema())

	nSupp := scaled(baseSupplier, sf)
	nCust := scaled(baseCustomer, sf)
	nPart := scaled(basePart, sf)
	nOrd := scaled(baseOrders, sf)

	if err := loadRegionNation(st); err != nil {
		return nil, err
	}
	if err := loadSuppliers(st, rnd, nSupp); err != nil {
		return nil, err
	}
	if err := loadCustomers(st, rnd, nCust); err != nil {
		return nil, err
	}
	partPrice, err := loadParts(st, rnd, nPart)
	if err != nil {
		return nil, err
	}
	if err := loadPartSupp(st, rnd, nPart, nSupp); err != nil {
		return nil, err
	}
	if err := loadOrdersAndLineitems(st, rnd, nOrd, nCust, nPart, nSupp, partPrice); err != nil {
		return nil, err
	}
	for _, schema := range st.Catalog.Tables() {
		tbl, _ := st.Table(schema.Name)
		tbl.BuildIndexes()
	}
	return st, nil
}

func scaled(base int, sf float64) int {
	n := int(float64(base) * sf)
	if n < 8 {
		n = 8
	}
	return n
}

func loadRegionNation(st *storage.Store) error {
	rt, _ := st.Table("region")
	regionRows := make([]types.Row, 0, len(regions))
	for i, name := range regions {
		regionRows = append(regionRows, types.Row{
			types.NewInt(int64(i)), types.NewString(name), types.NewString("region " + name),
		})
	}
	if err := rt.InsertAll(regionRows); err != nil {
		return err
	}
	nt, _ := st.Table("nation")
	nationRows := make([]types.Row, 0, len(nations))
	for i, name := range nations {
		nationRows = append(nationRows, types.Row{
			types.NewInt(int64(i)), types.NewString(name),
			types.NewInt(int64(i % len(regions))), types.NewString("nation " + name),
		})
	}
	return nt.InsertAll(nationRows)
}

func loadSuppliers(st *storage.Store, rnd *rand.Rand, n int) error {
	t, _ := st.Table("supplier")
	rows := make([]types.Row, 0, n)
	for i := 1; i <= n; i++ {
		rows = append(rows, types.Row{
			types.NewInt(int64(i)),
			types.NewString(fmt.Sprintf("Supplier#%09d", i)),
			types.NewString(randText(rnd, 12)),
			types.NewInt(int64(rnd.Intn(len(nations)))),
			types.NewString(randPhone(rnd)),
			types.NewFloat(float64(rnd.Intn(1100000)-100000) / 100),
			types.NewString(randText(rnd, 20)),
		})
	}
	return t.InsertAll(rows)
}

func loadCustomers(st *storage.Store, rnd *rand.Rand, n int) error {
	t, _ := st.Table("customer")
	rows := make([]types.Row, 0, n)
	for i := 1; i <= n; i++ {
		rows = append(rows, types.Row{
			types.NewInt(int64(i)),
			types.NewString(fmt.Sprintf("Customer#%09d", i)),
			types.NewString(randText(rnd, 12)),
			types.NewInt(int64(rnd.Intn(len(nations)))),
			types.NewString(randPhone(rnd)),
			types.NewFloat(float64(rnd.Intn(1100000)-100000) / 100),
			types.NewString(segments[rnd.Intn(len(segments))]),
			types.NewString(randText(rnd, 20)),
		})
	}
	return t.InsertAll(rows)
}

func loadParts(st *storage.Store, rnd *rand.Rand, n int) ([]float64, error) {
	t, _ := st.Table("part")
	prices := make([]float64, n+1)
	rows := make([]types.Row, 0, n)
	for i := 1; i <= n; i++ {
		price := float64(90000+((i/10)%20001)+100*(i%1000)) / 100
		prices[i] = price
		name := partNouns[rnd.Intn(len(partNouns))] + " " + partNouns[rnd.Intn(len(partNouns))]
		ptype := typeSyl1[rnd.Intn(len(typeSyl1))] + " " +
			typeSyl2[rnd.Intn(len(typeSyl2))] + " " + typeSyl3[rnd.Intn(len(typeSyl3))]
		rows = append(rows, types.Row{
			types.NewInt(int64(i)),
			types.NewString(name),
			types.NewString(fmt.Sprintf("Manufacturer#%d", 1+rnd.Intn(5))),
			types.NewString(fmt.Sprintf("Brand#%d%d", 1+rnd.Intn(5), 1+rnd.Intn(5))),
			types.NewString(ptype),
			types.NewInt(int64(1 + rnd.Intn(50))),
			types.NewString(containers[rnd.Intn(len(containers))]),
			types.NewFloat(price),
			types.NewString(randText(rnd, 10)),
		})
	}
	return prices, t.InsertAll(rows)
}

func loadPartSupp(st *storage.Store, rnd *rand.Rand, nPart, nSupp int) error {
	t, _ := st.Table("partsupp")
	rows := make([]types.Row, 0, 4*nPart)
	for p := 1; p <= nPart; p++ {
		for k := 0; k < 4; k++ {
			s := 1 + (p+k*(nSupp/4+1))%nSupp
			rows = append(rows, types.Row{
				types.NewInt(int64(p)),
				types.NewInt(int64(s)),
				types.NewInt(int64(1 + rnd.Intn(9999))),
				types.NewFloat(float64(100+rnd.Intn(99900)) / 100),
				types.NewString(randText(rnd, 15)),
			})
		}
	}
	return t.InsertAll(rows)
}

func loadOrdersAndLineitems(st *storage.Store, rnd *rand.Rand,
	nOrd, nCust, nPart, nSupp int, partPrice []float64) error {
	ot, _ := st.Table("orders")
	lt, _ := st.Table("lineitem")
	dateRange := endDate - startDate - 200
	otRows := make([]types.Row, 0, nOrd)
	ltRows := make([]types.Row, 0, 4*nOrd)
	for o := 1; o <= nOrd; o++ {
		// Customer keys divisible by 3 receive no orders, mirroring
		// dbgen's sparse custkey population (one third of customers
		// have no orders).
		cust := 1 + rnd.Intn(nCust)
		if cust%3 == 0 {
			cust++
			if cust > nCust {
				cust = 1
			}
		}
		odate := startDate + int64(rnd.Intn(int(dateRange)))
		nLines := 1 + rnd.Intn(7)
		total := 0.0
		for l := 1; l <= nLines; l++ {
			part := 1 + rnd.Intn(nPart)
			supp := 1 + rnd.Intn(nSupp)
			qty := float64(1 + rnd.Intn(50))
			ext := qty * partPrice[part]
			total += ext
			ship := odate + int64(1+rnd.Intn(120))
			commit := odate + int64(30+rnd.Intn(90))
			receipt := ship + int64(1+rnd.Intn(30))
			ltRows = append(ltRows, types.Row{
				types.NewInt(int64(o)),
				types.NewInt(int64(part)),
				types.NewInt(int64(supp)),
				types.NewInt(int64(l)),
				types.NewFloat(qty),
				types.NewFloat(ext),
				types.NewFloat(float64(rnd.Intn(11)) / 100),
				types.NewFloat(float64(rnd.Intn(9)) / 100),
				types.NewString([]string{"R", "A", "N"}[rnd.Intn(3)]),
				types.NewString([]string{"O", "F"}[rnd.Intn(2)]),
				types.NewDate(ship),
				types.NewDate(commit),
				types.NewDate(receipt),
				types.NewString(instructs[rnd.Intn(len(instructs))]),
				types.NewString(shipModes[rnd.Intn(len(shipModes))]),
				types.NewString(randText(rnd, 10)),
			})
		}
		status := "F"
		if rnd.Intn(2) == 0 {
			status = "O"
		}
		otRows = append(otRows, types.Row{
			types.NewInt(int64(o)),
			types.NewInt(int64(cust)),
			types.NewString(status),
			types.NewFloat(total),
			types.NewDate(odate),
			types.NewString(priorities[rnd.Intn(len(priorities))]),
			types.NewString(fmt.Sprintf("Clerk#%09d", 1+rnd.Intn(1000))),
			types.NewInt(0),
			types.NewString(randText(rnd, 12)),
		})
	}
	if err := lt.InsertAll(ltRows); err != nil {
		return err
	}
	return ot.InsertAll(otRows)
}

const letters = "abcdefghijklmnopqrstuvwxyz "

func randText(rnd *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[rnd.Intn(len(letters))]
	}
	return string(b)
}

func randPhone(rnd *rand.Rand) string {
	return fmt.Sprintf("%02d-%03d-%03d-%04d",
		10+rnd.Intn(25), rnd.Intn(1000), rnd.Intn(1000), rnd.Intn(10000))
}
