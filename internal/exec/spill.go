package exec

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"orthoq/internal/sql/types"
)

// Spill infrastructure: when a memory-hungry operator (hash-join
// build, hash aggregation) reaches Context.MemBudget it degrades to
// Grace-style partitioning — rows are hashed on the operator's key
// into spillFanout temp-file partitions, and each partition is
// processed independently afterwards. A partition that is itself too
// large repartitions on the next 3 hash bits (recursive handling of
// skew); once the hash bits are exhausted a partition is processed
// unbounded, since identical-key skew can never split (the classic
// Grace fallback).

// spillFanout is the number of partitions per spill level; each level
// consumes spillBits bits of the 64-bit key hash.
const (
	spillFanout = 8
	spillBits   = 3
	// maxSpillLevel is the last level with fresh hash bits available.
	maxSpillLevel = 64/spillBits - 1
)

// spillPart routes a key hash to its partition at a recursion level.
func spillPart(h uint64, level int) int {
	return int((h >> uint(spillBits*level)) & (spillFanout - 1))
}

// spillFile is one temp-file partition of spilled rows. Writing goes
// through a buffered encoder; reading opens an independent handle so
// parallel workers can replay the same partition concurrently.
type spillFile struct {
	path string
	f    *os.File
	w    *bufio.Writer
	rows int64
}

// newSpillFile creates a registered spill partition in ctx.SpillDir.
func newSpillFile(ctx *Context) (*spillFile, error) {
	f, err := os.CreateTemp(ctx.SpillDir, "orthoq-spill-*")
	if err != nil {
		return nil, err
	}
	sf := &spillFile{path: f.Name(), f: f, w: bufio.NewWriterSize(f, 1<<16)}
	ctx.registerSpill(sf)
	ctx.shared.spills.Add(1)
	return sf, nil
}

func (s *spillFile) write(r types.Row) error {
	s.rows++
	return encodeRow(s.w, r)
}

// finish flushes buffered writes; the file stays on disk for reading.
func (s *spillFile) finish() error {
	if s.w == nil {
		return nil
	}
	err := s.w.Flush()
	s.w = nil
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f = nil
	return err
}

// reader opens an independent read handle over the finished file.
func (s *spillFile) reader() (*spillReader, error) {
	f, err := os.Open(s.path)
	if err != nil {
		return nil, err
	}
	return &spillReader{f: f, r: bufio.NewReaderSize(f, 1<<16)}, nil
}

// remove deletes the file from disk (idempotent).
func (s *spillFile) remove() {
	if s.w != nil {
		s.w = nil
	}
	if s.f != nil {
		s.f.Close()
		s.f = nil
	}
	os.Remove(s.path)
}

// drop removes the file and unregisters it from the run's cleanup
// list.
func (s *spillFile) drop(ctx *Context) {
	ctx.unregisterSpill(s)
	s.remove()
}

// spillReader replays a spill partition.
type spillReader struct {
	f *os.File
	r *bufio.Reader
}

// next decodes the next row; ok=false at clean end of file.
func (s *spillReader) next() (types.Row, bool, error) {
	row, err := decodeRow(s.r)
	if err == io.EOF {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	return row, true, nil
}

func (s *spillReader) close() { s.f.Close() }

// fileIter replays a spill partition file as an iterator: batches of
// at most the consumer's cap, each row counted toward RowBudget when
// charge is set. A nil file is an empty input. Close drops the file
// when drop is set.
type fileIter struct {
	ctx    *Context
	f      *spillFile
	drop   bool
	charge bool
	rd     *spillReader
	buf    []types.Row
}

func (it *fileIter) Open() (err error) {
	if it.f != nil {
		it.rd, err = it.f.reader()
	}
	return err
}

func (it *fileIter) NextBatch(b *Batch) error {
	it.buf = it.buf[:0]
	for it.rd != nil && len(it.buf) < b.limit() {
		row, ok, err := it.rd.next()
		if err != nil || !ok {
			b.set(it.buf, nil)
			return err
		}
		if it.charge {
			if err := it.ctx.charge(); err != nil {
				return err
			}
		}
		it.buf = append(it.buf, row)
	}
	b.set(it.buf, nil)
	return nil
}

func (it *fileIter) Close() error {
	if it.rd != nil {
		it.rd.close()
		it.rd = nil
	}
	if it.drop && it.f != nil {
		it.f.drop(it.ctx)
		it.f = nil
	}
	return nil
}

// spillSet is one level of partition files, created lazily per
// partition so empty partitions cost nothing.
type spillSet struct {
	ctx   *Context
	level int
	parts [spillFanout]*spillFile
}

func newSpillSet(ctx *Context, level int) *spillSet {
	return &spillSet{ctx: ctx, level: level}
}

// add routes a row by key hash into its partition file.
func (ss *spillSet) add(h uint64, row types.Row) error {
	p := spillPart(h, ss.level)
	if ss.parts[p] == nil {
		f, err := newSpillFile(ss.ctx)
		if err != nil {
			return err
		}
		ss.parts[p] = f
	}
	return ss.parts[p].write(row)
}

// finish flushes all partition writers.
func (ss *spillSet) finish() error {
	for _, f := range ss.parts {
		if f != nil {
			if err := f.finish(); err != nil {
				return err
			}
		}
	}
	return nil
}

// dropAll removes every partition file.
func (ss *spillSet) dropAll() {
	for i, f := range ss.parts {
		if f != nil {
			f.drop(ss.ctx)
			ss.parts[i] = nil
		}
	}
}

// Row codec: a compact self-describing binary layout. Per datum: one
// kind byte with the null flag in the high bit, then the payload
// (varints for integer kinds, 8 fixed bytes for floats, length-
// prefixed bytes for strings). Rows are length-prefixed by column
// count.

const nullFlag = 0x80

func encodeRow(w *bufio.Writer, r types.Row) error {
	var scratch [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(scratch[:], uint64(len(r)))
	if _, err := w.Write(scratch[:n]); err != nil {
		return err
	}
	for _, d := range r {
		tag := byte(d.Kind())
		if d.IsNull() {
			tag |= nullFlag
		}
		if err := w.WriteByte(tag); err != nil {
			return err
		}
		if d.IsNull() {
			continue
		}
		switch d.Kind() {
		case types.Bool:
			v := byte(0)
			if d.Bool() {
				v = 1
			}
			if err := w.WriteByte(v); err != nil {
				return err
			}
		case types.Int:
			n := binary.PutVarint(scratch[:], d.Int())
			if _, err := w.Write(scratch[:n]); err != nil {
				return err
			}
		case types.Date:
			n := binary.PutVarint(scratch[:], d.Days())
			if _, err := w.Write(scratch[:n]); err != nil {
				return err
			}
		case types.Float:
			binary.LittleEndian.PutUint64(scratch[:8], math.Float64bits(d.Float()))
			if _, err := w.Write(scratch[:8]); err != nil {
				return err
			}
		case types.String:
			s := d.Str()
			n := binary.PutUvarint(scratch[:], uint64(len(s)))
			if _, err := w.Write(scratch[:n]); err != nil {
				return err
			}
			if _, err := w.WriteString(s); err != nil {
				return err
			}
		default:
			return fmt.Errorf("exec: cannot spill datum kind %v", d.Kind())
		}
	}
	return nil
}

// decodeRow reads one row; io.EOF signals a clean end of stream.
func decodeRow(r *bufio.Reader) (types.Row, error) {
	width, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	row := make(types.Row, width)
	for i := range row {
		tag, err := r.ReadByte()
		if err != nil {
			return nil, unexpectedEOF(err)
		}
		kind := types.Kind(tag &^ nullFlag)
		if tag&nullFlag != 0 {
			row[i] = types.Null(kind)
			continue
		}
		switch kind {
		case types.Bool:
			b, err := r.ReadByte()
			if err != nil {
				return nil, unexpectedEOF(err)
			}
			row[i] = types.NewBool(b != 0)
		case types.Int:
			v, err := binary.ReadVarint(r)
			if err != nil {
				return nil, unexpectedEOF(err)
			}
			row[i] = types.NewInt(v)
		case types.Date:
			v, err := binary.ReadVarint(r)
			if err != nil {
				return nil, unexpectedEOF(err)
			}
			row[i] = types.NewDate(v)
		case types.Float:
			var buf [8]byte
			if _, err := io.ReadFull(r, buf[:]); err != nil {
				return nil, unexpectedEOF(err)
			}
			row[i] = types.NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(buf[:])))
		case types.String:
			n, err := binary.ReadUvarint(r)
			if err != nil {
				return nil, unexpectedEOF(err)
			}
			buf := make([]byte, n)
			if _, err := io.ReadFull(r, buf); err != nil {
				return nil, unexpectedEOF(err)
			}
			row[i] = types.NewString(string(buf))
		default:
			return nil, fmt.Errorf("exec: corrupt spill file (kind %d)", kind)
		}
	}
	return row, nil
}

// unexpectedEOF upgrades a mid-row EOF to an error that is not
// mistaken for clean end of stream.
func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
