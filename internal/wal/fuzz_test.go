package wal

import (
	"strings"
	"testing"

	"orthoq/internal/sql/catalog"
	"orthoq/internal/storage"
)

// realSegment writes a create, three insert batches and an epoch record
// through a Manager and returns the bytes of the segment it produced.
func realSegment(t testing.TB) []byte {
	t.Helper()
	ffs := NewFaultFS(nil)
	m, st, _, err := Open(Options{Dir: testDir, Policy: SyncAlways, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	st.SetJournal(m)
	tbl, err := st.CreateTable(testSchema("t"))
	if err != nil {
		t.Fatal(err)
	}
	for b := int64(0); b < 3; b++ {
		if err := tbl.InsertAll(batchRows(b, 4)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.LogEpoch(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := ffs.ReadDir(testDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if strings.HasSuffix(name, ".log") {
			data, err := ffs.ReadFile(testDir + "/" + name)
			if err != nil || len(data) == 0 {
				t.Fatalf("segment %s: %d bytes, err %v", name, len(data), err)
			}
			return data
		}
	}
	t.Fatal("no segment written")
	return nil
}

// FuzzWALRecord walks arbitrary bytes the way recovery walks a segment:
// frame by frame, each record's body through its typed decoder and into
// a scratch store. Every step must answer with a record or an error —
// never a panic, a hang, or an allocation sized by an unchecked length —
// and must consume bytes, so the walk terminates.
func FuzzWALRecord(f *testing.F) {
	seg := realSegment(f)
	f.Add(seg)
	f.Add(seg[:len(seg)-3])                                                             // torn tail
	f.Add(append(append([]byte(nil), seg[:40]...), seg[44:]...))                        // bytes lost mid-log
	f.Add(appendFrame(nil, 1, recInsert, []byte{1, 't', 0xff, 0xff, 0xff, 0xff, 0x0f})) // 2^32 rows, no data
	f.Add(appendFrame(nil, 1, 9, nil))                                                  // unknown record type
	f.Fuzz(func(t *testing.T, data []byte) {
		st := storage.New(catalog.New())
		for buf := data; len(buf) > 0; {
			rec, rest, n, err := decodeFrame(buf)
			if err != nil {
				if len(buf) <= 4096 {
					hasFrameAfter(buf) // the torn-vs-corrupt scan; quadratic, so bounded here
				}
				return
			}
			if n <= 0 || len(rest) != len(buf)-n {
				t.Fatalf("frame consumed %d of %d bytes, %d left", n, len(buf), len(rest))
			}
			_ = applyRecord(st, rec)
			buf = rest
		}
	})
}
