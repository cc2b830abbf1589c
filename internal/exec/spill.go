package exec

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"slices"

	"orthoq/internal/sql/types"
	"orthoq/internal/storage"
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
// parallel workers can replay the same partition concurrently. A row
// is stored as its length in bytes, a uvarint, then the storage row
// codec's bytes (storage.AppendRow, the WAL's and checkpoint's codec).
type spillFile struct {
	path string
	f    *os.File
	w    *bufio.Writer
	rows int64
	buf  []byte
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
	s.buf = storage.AppendRow(s.buf[:0], r)
	var prefix [binary.MaxVarintLen64]byte
	if _, err := s.w.Write(binary.AppendUvarint(prefix[:0], uint64(len(s.buf)))); err != nil {
		return err
	}
	_, err := s.w.Write(s.buf)
	return err
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
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &spillReader{f: f, r: bufio.NewReaderSize(f, 1<<16), left: st.Size()}, nil
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
	f    *os.File
	r    *bufio.Reader
	left int64 // bytes of the file not yet read
	buf  []byte
}

// next decodes the next row; ok=false at clean end of file. A file
// cut inside a row is io.ErrUnexpectedEOF, and a length the rest of
// the file cannot hold is refused before anything is allocated.
func (s *spillReader) next() (types.Row, bool, error) {
	n, err := binary.ReadUvarint(s.r)
	if err == io.EOF {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	s.left -= int64(len(binary.AppendUvarint(s.buf[:0], n)))
	if n > uint64(max(s.left, 0)) {
		return nil, false, io.ErrUnexpectedEOF
	}
	s.left -= int64(n)
	s.buf = slices.Grow(s.buf[:0], int(n))[:n]
	if _, err := io.ReadFull(s.r, s.buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, false, err
	}
	row, rest, err := storage.DecodeRow(s.buf)
	if err == nil && len(rest) > 0 {
		err = fmt.Errorf("exec: corrupt spill file (%d bytes after a row)", len(rest))
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
