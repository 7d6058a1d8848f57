package trace

// Streaming binary trace format, version 2 ("MTR2"):
//
//	magic    [4]byte "MTR2"
//	header   uvarint blockSize   (0 = unspecified)
//	         uvarint pageSize    (0 = unspecified)
//	         uvarint nodes       (0 = unspecified)
//	records  per access:
//	         uvarint head        ((node<<1 | kind) + 1; never zero)
//	         uvarint addrDelta   (zigzag-encoded signed delta from the
//	                              previous record's address; first record
//	                              is a delta from address 0)
//	trailer  0x00                (terminator; impossible as a record head)
//	         uvarint count       (number of records, as an integrity check)
//
// Consecutive accesses tend to be near one another in the address space, so
// the zigzag deltas keep most records to two or three bytes versus MTR1's
// fixed ten. More importantly the format streams: the decoder needs no
// record count up front and holds O(1) state, and every truncation is
// detectable without seeking — cutting the stream mid-varint leaves a byte
// with the continuation bit set and no successor, cutting between records
// removes the terminator/count trailer, and both cases surface as
// ErrTruncated.
//
// Writer emits only version 3 ("MTR3", see index.go), which keeps this
// record stream byte for byte and appends a segment index + footer after
// the trailer, so segments can be decoded independently and in parallel.
// Every replay path reads MTR3 through IndexedFileSource. The sequential
// Decoder here still accepts all three magics: it reads v3 exactly like
// v2 and then validates the index structurally, and it is how
// `tracegen -in old.mtr -o new.mtr` converts a v1 (see trace.go) or v2
// file to v3.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"migratory/internal/memory"
)

var magic2 = [4]byte{'M', 'T', 'R', '2'}

// ErrTruncated is wrapped by decode errors caused by an input that ends
// before the trace's trailer, e.g. a partially copied file.
var ErrTruncated = errors.New("trace: truncated trace file")

// ErrCorrupt is wrapped by decode errors caused by structurally invalid
// input: overlong varints, impossible node numbers, a record count that
// disagrees with the trailer, or trailing garbage.
var ErrCorrupt = errors.New("trace: corrupt trace file")

// Header carries the trace geometry recorded in an MTR2/MTR3 file. Zero
// fields mean the writer did not specify them; version-1 files always
// decode to a zero Header.
type Header struct {
	BlockSize int // block size in bytes, 0 if unspecified
	PageSize  int // page size in bytes, 0 if unspecified
	Nodes     int // number of nodes, 0 if unspecified
}

// Geometry returns the header's block/page geometry, if fully specified
// and valid.
func (h Header) Geometry() (memory.Geometry, bool) {
	if h.BlockSize == 0 || h.PageSize == 0 {
		return memory.Geometry{}, false
	}
	g, err := memory.NewGeometry(h.BlockSize, h.PageSize)
	if err != nil {
		return memory.Geometry{}, false
	}
	return g, true
}

// WriterOptions tunes a Writer's segmenting.
type WriterOptions struct {
	// SegmentBytes is the target encoded size of one segment (0 =
	// DefaultSegmentBytes). Segments close at the first record boundary at
	// or past the target, so a segment can exceed it by one record's
	// encoding.
	SegmentBytes int
}

// Writer encodes accesses to the MTR3 format. Close must be called to emit
// the trailer, the segment index and the footer; a stream without them
// reads back as ErrTruncated.
type Writer struct {
	bw     *bufio.Writer
	hdr    Header
	prev   memory.Addr
	count  uint64
	err    error
	closed bool

	// Segmenting state. off tracks the file offset of every emitted byte;
	// while inSeg, record bytes also feed the running segment CRC.
	segBytes int64
	off      int64
	inSeg    bool
	seg      Segment
	crc      uint32
	segs     []Segment
}

// NewWriter returns a Writer emitting MTR3 to w with default segmenting.
// The header is written immediately. Header fields may be zero
// (unspecified), but a negative field or a Nodes beyond memory.MaxNodes is
// rejected at the first Write.
func NewWriter(w io.Writer, hdr Header) *Writer {
	return NewWriterOptions(w, hdr, WriterOptions{})
}

// NewWriterOptions is NewWriter with an explicit segment target (the
// tracegen -segment-bytes flag).
func NewWriterOptions(w io.Writer, hdr Header, opts WriterOptions) *Writer {
	tw := &Writer{bw: bufio.NewWriter(w), hdr: hdr}
	tw.segBytes = int64(opts.SegmentBytes)
	if tw.segBytes <= 0 {
		tw.segBytes = DefaultSegmentBytes
	}
	if hdr.BlockSize < 0 || hdr.PageSize < 0 || hdr.Nodes < 0 || hdr.Nodes > memory.MaxNodes {
		tw.err = fmt.Errorf("trace: invalid header %+v", hdr)
		return tw
	}
	tw.emit(magic3[:])
	tw.putUvarint(uint64(hdr.BlockSize))
	tw.putUvarint(uint64(hdr.PageSize))
	tw.putUvarint(uint64(hdr.Nodes))
	return tw
}

// emit writes p, advancing the offset tracker and, inside a segment, the
// segment CRC.
func (w *Writer) emit(p []byte) {
	if w.err != nil {
		return
	}
	if _, err := w.bw.Write(p); err != nil {
		w.err = err
		return
	}
	w.off += int64(len(p))
	if w.inSeg {
		w.crc = crc32.Update(w.crc, crc32.IEEETable, p)
	}
}

func (w *Writer) putUvarint(v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.emit(buf[:n])
}

// closeSegment finishes the in-progress segment and files its index entry.
func (w *Writer) closeSegment() {
	if !w.inSeg {
		return
	}
	w.seg.Len = w.off - w.seg.Off
	w.seg.CRC = w.crc
	w.segs = append(w.segs, w.seg)
	w.inSeg = false
}

// Write appends one access to the stream.
func (w *Writer) Write(a Access) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		w.err = errors.New("trace: Write after Close")
		return w.err
	}
	if a.Kind > Write {
		w.err = fmt.Errorf("trace: cannot encode access with kind %v", a.Kind)
		return w.err
	}
	if w.hdr.Nodes > 0 && int(a.Node) >= w.hdr.Nodes {
		w.err = fmt.Errorf("trace: access node %d outside header node count %d", a.Node, w.hdr.Nodes)
		return w.err
	}
	if !w.inSeg {
		// Open a segment at the current record boundary. StartAddr is the
		// running delta base, so an indexed reader can decode the segment
		// without replaying anything before it.
		w.seg = Segment{Off: w.off, StartAddr: w.prev, StartIndex: w.count}
		w.crc = 0
		w.inSeg = true
	}
	w.putUvarint((uint64(a.Node)<<1 | uint64(a.Kind)) + 1)
	delta := int64(a.Addr) - int64(w.prev)
	w.putUvarint(uint64(delta<<1) ^ uint64(delta>>63)) // zigzag
	w.prev = a.Addr
	w.count++
	w.seg.Count++
	if w.off-w.seg.Off >= w.segBytes {
		w.closeSegment()
	}
	return w.err
}

// Close writes the trailer, the segment index and the footer, then
// flushes. It does not close the underlying io.Writer.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return nil
	}
	w.closed = true
	w.closeSegment()
	w.emit([]byte{0})
	w.putUvarint(w.count)
	indexOff := w.off
	body := make([]byte, 0, 16+len(w.segs)*5*binary.MaxVarintLen64/2)
	body = binary.AppendUvarint(body, uint64(len(w.segs)))
	for _, s := range w.segs {
		body = binary.AppendUvarint(body, uint64(s.Off))
		body = binary.AppendUvarint(body, uint64(s.Len))
		body = binary.AppendUvarint(body, s.Count)
		body = binary.AppendUvarint(body, uint64(s.StartAddr))
		body = binary.AppendUvarint(body, uint64(s.CRC))
	}
	w.emit(body)
	var foot [footerSize]byte
	binary.LittleEndian.PutUint64(foot[0:8], uint64(indexOff))
	binary.LittleEndian.PutUint32(foot[8:12], crc32.ChecksumIEEE(body))
	copy(foot[12:16], footerMagic[:])
	w.emit(foot[:])
	if w.err != nil {
		return w.err
	}
	w.err = w.bw.Flush()
	return w.err
}

// Copy streams every access from r into w and returns the number copied.
// It does not Close the Writer; the caller decides when the trailer goes
// out.
func Copy(w *Writer, r Reader) (int, error) {
	n := 0
	for {
		a, err := r.Next()
		if errors.Is(err, io.EOF) {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		if err := w.Write(a); err != nil {
			return n, err
		}
		n++
	}
}

// Decoder streams accesses out of a binary trace (MTR3, MTR2, or the
// legacy MTR1 format) with O(1) record-decode state. MTR3 input decodes
// sequentially here — the segment index after the trailer is validated
// structurally, then discarded; IndexedFileSource is the reader that puts
// it to work.
type Decoder struct {
	br        *bufio.Reader
	hdr       Header
	legacy    bool   // MTR1 input
	indexed   bool   // MTR3 input: a segment index follows the trailer
	idxOK     bool   // MTR3 index already validated once on this stream
	remaining uint64 // MTR1: records left
	prev      memory.Addr
	count     uint64
	done      bool
}

// NewDecoder reads the magic and header from r and returns a Decoder
// positioned at the first record.
func NewDecoder(r io.Reader) (*Decoder, error) {
	d := &Decoder{br: bufio.NewReader(r)}
	if err := d.init(); err != nil {
		return nil, err
	}
	return d, nil
}

// init reads the magic and header and resets all per-stream decode state.
// It is called both by NewDecoder and when a FileSource rewinds, so a Reset
// reuses the Decoder and its bufio buffer instead of reallocating them.
func (d *Decoder) init() error {
	// Peek/Discard instead of ReadFull into a local: the local would escape
	// through the io.Reader interface, costing one allocation per Reset.
	win, err := d.br.Peek(4)
	if err != nil {
		return fmt.Errorf("trace: reading magic: %w", coalesceEOF(err))
	}
	var m [4]byte
	copy(m[:], win)
	d.br.Discard(4)
	d.hdr = Header{}
	d.legacy = false
	d.indexed = false
	d.remaining = 0
	d.prev = 0
	d.count = 0
	d.done = false
	switch m {
	case magic2, magic3:
		d.indexed = m == magic3
		bs, err := d.uvarint("header block size")
		if err != nil {
			return err
		}
		ps, err := d.uvarint("header page size")
		if err != nil {
			return err
		}
		nodes, err := d.uvarint("header node count")
		if err != nil {
			return err
		}
		const maxGeom = 1 << 30
		if bs > maxGeom || ps > maxGeom || nodes > memory.MaxNodes {
			return fmt.Errorf("trace: implausible header (block %d, page %d, nodes %d): %w", bs, ps, nodes, ErrCorrupt)
		}
		d.hdr = Header{BlockSize: int(bs), PageSize: int(ps), Nodes: int(nodes)}
	case magic:
		d.legacy = true
		hdr, err := d.br.Peek(8)
		if err != nil {
			return fmt.Errorf("trace: reading count: %w", coalesceEOF(err))
		}
		d.remaining = binary.LittleEndian.Uint64(hdr)
		d.br.Discard(8)
		const sanityMax = 1 << 32
		if d.remaining > sanityMax {
			return fmt.Errorf("trace: implausible record count %d: %w", d.remaining, ErrCorrupt)
		}
	default:
		return ErrBadMagic
	}
	return nil
}

// coalesceEOF folds the two flavors of premature end-of-input into
// ErrTruncated; other errors pass through.
func coalesceEOF(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	return err
}

func (d *Decoder) uvarint(what string) (uint64, error) {
	v, err := binary.ReadUvarint(d.br)
	if err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, fmt.Errorf("trace: reading %s: %w", what, coalesceEOF(err))
		}
		return 0, fmt.Errorf("trace: reading %s: %w: %v", what, ErrCorrupt, err)
	}
	return v, nil
}

// Header returns the geometry header (zero for legacy MTR1 input).
func (d *Decoder) Header() Header { return d.hdr }

// recordErr wraps a varint read failure with the record position it
// happened at. Building the context string only here keeps fmt.Sprintf off
// the per-record success path.
func (d *Decoder) recordErr(what string, err error) error {
	what = fmt.Sprintf("record %d %s", d.count, what)
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("trace: reading %s: %w", what, coalesceEOF(err))
	}
	return fmt.Errorf("trace: reading %s: %w: %v", what, ErrCorrupt, err)
}

// finishTrailer validates the count trailer after the 0x00 terminator and
// demands a clean EOF — except for MTR3 input, where the segment index and
// footer legitimately follow and are validated instead. On success it
// marks the decoder done.
func (d *Decoder) finishTrailer() error {
	n, err := d.uvarint("trailer count")
	if err != nil {
		return err
	}
	if n != d.count {
		return fmt.Errorf("trace: trailer count %d != %d records decoded: %w", n, d.count, ErrCorrupt)
	}
	if d.indexed {
		if err := d.finishIndex(); err != nil {
			return err
		}
		d.done = true
		return nil
	}
	if _, err := d.br.ReadByte(); err == nil {
		return fmt.Errorf("trace: trailing bytes after trailer: %w", ErrCorrupt)
	} else if !errors.Is(err, io.EOF) {
		return err
	}
	d.done = true
	return nil
}

// finishIndex consumes and validates the MTR3 segment index and footer
// that trail the record stream, so a sequential decode of a v3 file keeps
// the "every truncation or corruption is detected" property end to end.
// The stream gives no random access, so the validation is structural: the
// footer magic and index CRC must check out, the entries must parse, tile
// the record region for this header, and sum to the count just verified.
//
// The validation result is sticky: when a FileSource resets and replays the
// same bytes, later passes discard the tail without re-parsing it, keeping
// the steady-state Reset+drain loop allocation-free.
func (d *Decoder) finishIndex() error {
	if d.idxOK {
		if _, err := io.Copy(io.Discard, d.br); err != nil {
			return fmt.Errorf("trace: reading segment index: %w", err)
		}
		return nil
	}
	rest, err := io.ReadAll(io.LimitReader(d.br, maxIndexBytes+1))
	if err != nil {
		return fmt.Errorf("trace: reading segment index: %w", err)
	}
	if len(rest) > maxIndexBytes {
		return fmt.Errorf("trace: implausible %d-byte segment index: %w", len(rest), ErrCorrupt)
	}
	if len(rest) < footerSize+1 {
		return fmt.Errorf("trace: %d bytes after trailer (want segment index + footer): %w", len(rest), ErrTruncated)
	}
	foot := rest[len(rest)-footerSize:]
	if *(*[4]byte)(foot[12:16]) != footerMagic {
		// A footer magic somewhere inside the tail but not at the very end
		// means the writer finished and something appended bytes after it;
		// no magic at all means the file was cut mid-index.
		if i := bytes.LastIndex(rest, footerMagic[:]); i >= 0 {
			return fmt.Errorf("trace: %d trailing bytes after MTR3 footer: %w", len(rest)-i-len(footerMagic), ErrCorrupt)
		}
		return fmt.Errorf("trace: missing MTR3 footer magic (file cut before the index was written): %w", ErrTruncated)
	}
	body := rest[:len(rest)-footerSize]
	if got, want := crc32.ChecksumIEEE(body), binary.LittleEndian.Uint32(foot[8:12]); got != want {
		return fmt.Errorf("trace: segment index crc %#x != footer %#x: %w", got, want, ErrCorrupt)
	}
	indexOff := binary.LittleEndian.Uint64(foot[0:8])
	if indexOff > 1<<62 {
		return fmt.Errorf("trace: footer index offset %#x out of range: %w", indexOff, ErrCorrupt)
	}
	_, total, err := parseIndexEntries(body, d.hdr.headerEnd(), int64(indexOff))
	if err != nil {
		return err
	}
	if total != d.count {
		return fmt.Errorf("trace: segment index total %d != %d records decoded: %w", total, d.count, ErrCorrupt)
	}
	d.idxOK = true
	return nil
}

// Next returns the next access, or io.EOF after the final one. Any other
// error wraps ErrTruncated or ErrCorrupt.
func (d *Decoder) Next() (Access, error) {
	if d.done {
		return Access{}, io.EOF
	}
	if d.legacy {
		return d.nextLegacy()
	}
	head, err := binary.ReadUvarint(d.br)
	if err != nil {
		return Access{}, d.recordErr("head", err)
	}
	if head == 0 {
		if err := d.finishTrailer(); err != nil {
			return Access{}, err
		}
		return Access{}, io.EOF
	}
	kn := head - 1
	node := kn >> 1
	if node > 0xFF || (d.hdr.Nodes > 0 && node >= uint64(d.hdr.Nodes)) {
		return Access{}, fmt.Errorf("trace: record %d has impossible node %d: %w", d.count, node, ErrCorrupt)
	}
	enc, err := binary.ReadUvarint(d.br)
	if err != nil {
		return Access{}, d.recordErr("address", err)
	}
	delta := int64(enc>>1) ^ -int64(enc&1) // un-zigzag
	addr := memory.Addr(int64(d.prev) + delta)
	d.prev = addr
	d.count++
	return Access{Node: memory.NodeID(node), Kind: Kind(kn & 1), Addr: addr}, nil
}

// DecodeBatch fills buf with up to len(buf) accesses, implementing the
// BatchReader contract. The hot path decodes varints straight out of the
// bufio window via Peek/Discard — no per-byte io.ByteReader calls and no
// per-record error-context formatting — and falls back to Next only to
// cross a buffer refill boundary.
func (d *Decoder) DecodeBatch(buf []Access) (int, error) {
	if d.done {
		return 0, io.EOF
	}
	n := 0
	if d.legacy {
		for n < len(buf) {
			a, err := d.nextLegacy()
			if err != nil {
				return n, err
			}
			buf[n] = a
			n++
		}
		return n, nil
	}
	// A record is two varints of at most MaxVarintLen64 bytes each; as long
	// as that many bytes are buffered, both decode without boundary checks.
	// Peeking the whole buffered window (not just one record's worth)
	// amortizes the Peek/Discard bookkeeping over the hundreds of records a
	// bufio buffer holds, leaving two varint decodes per record.
	const maxRec = 2 * binary.MaxVarintLen64
	prev := d.prev
	for n < len(buf) {
		avail := d.br.Buffered()
		if avail < maxRec {
			if win, _ := d.br.Peek(maxRec); len(win) < maxRec {
				// Near a refill or the end of input: take the careful path.
				d.prev = prev
				a, err := d.Next()
				if err != nil {
					return n, err
				}
				prev = d.prev
				buf[n] = a
				n++
				continue
			}
			avail = d.br.Buffered()
		}
		win, _ := d.br.Peek(avail)
		off := 0
		for n < len(buf) && off+maxRec <= len(win) {
			// Single-byte varints dominate (heads fit one byte for up to 127
			// nodes, and delta-encoded addresses are usually small), so check
			// the continuation bit inline before calling binary.Uvarint.
			var head uint64
			var hn int
			if b := win[off]; b < 0x80 {
				head, hn = uint64(b), 1
			} else if head, hn = binary.Uvarint(win[off:]); hn <= 0 {
				d.br.Discard(off)
				d.prev = prev
				return n, d.recordErr("head", errors.New("overlong varint"))
			}
			if head == 0 {
				d.br.Discard(off + hn)
				d.prev = prev
				if err := d.finishTrailer(); err != nil {
					return n, err
				}
				return n, io.EOF
			}
			kn := head - 1
			node := kn >> 1
			if node > 0xFF || (d.hdr.Nodes > 0 && node >= uint64(d.hdr.Nodes)) {
				d.br.Discard(off)
				d.prev = prev
				return n, fmt.Errorf("trace: record %d has impossible node %d: %w", d.count, node, ErrCorrupt)
			}
			var enc uint64
			var en int
			if b := win[off+hn]; b < 0x80 {
				enc, en = uint64(b), 1
			} else if enc, en = binary.Uvarint(win[off+hn:]); en <= 0 {
				d.br.Discard(off)
				d.prev = prev
				return n, d.recordErr("address", errors.New("overlong varint"))
			}
			delta := int64(enc>>1) ^ -int64(enc&1) // un-zigzag
			addr := memory.Addr(int64(prev) + delta)
			prev = addr
			buf[n] = Access{Node: memory.NodeID(node), Kind: Kind(kn & 1), Addr: addr}
			n++
			d.count++
			off += hn + en
		}
		d.br.Discard(off)
	}
	d.prev = prev
	return n, nil
}

func (d *Decoder) nextLegacy() (Access, error) {
	if d.remaining == 0 {
		d.done = true
		return Access{}, io.EOF
	}
	var rec [recordSize]byte
	if _, err := io.ReadFull(d.br, rec[:]); err != nil {
		return Access{}, fmt.Errorf("trace: reading record %d: %w", d.count, coalesceEOF(err))
	}
	d.remaining--
	d.count++
	return Access{
		Node: memory.NodeID(rec[0]),
		Kind: Kind(rec[1]),
		Addr: memory.Addr(binary.LittleEndian.Uint64(rec[2:])),
	}, nil
}

// FileSource is a Source decoding a binary trace (MTR1, MTR2, or MTR3 —
// the latter sequentially, ignoring its segment index) from a seekable
// stream, typically a file. Reset seeks back to the start and re-reads the
// header, so the two-pass placement/simulation workflow works without ever
// materializing the trace. It is the reader `tracegen -in` converts old
// files with and the reference the indexed-decode equivalence tests
// compare against; replay paths open MTR3 files through
// OpenFileParallelCache instead.
type FileSource struct {
	r      io.ReadSeeker
	dec    *Decoder
	closer io.Closer // non-nil when OpenFile owns the descriptor
}

// OpenFile opens path as a FileSource. The caller must Close it.
func OpenFile(path string) (*FileSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	src, err := NewFileSource(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	src.closer = f
	return src, nil
}

// NewFileSource wraps an existing seekable stream. The stream must be
// positioned at the start of the trace; Close does not close it.
func NewFileSource(r io.ReadSeeker) (*FileSource, error) {
	dec, err := NewDecoder(r)
	if err != nil {
		return nil, err
	}
	return &FileSource{r: r, dec: dec}, nil
}

// Header returns the geometry header (zero for legacy MTR1 files).
func (s *FileSource) Header() Header { return s.dec.Header() }

// Next implements Source.
func (s *FileSource) Next() (Access, error) { return s.dec.Next() }

// NextBatch implements BatchReader via Decoder.DecodeBatch.
func (s *FileSource) NextBatch(buf []Access) (int, error) { return s.dec.DecodeBatch(buf) }

// Reset implements Source by seeking back to the start of the stream. The
// Decoder and its buffer are reused across Resets, so the two-pass
// placement/simulation workflow allocates no per-pass decode state.
func (s *FileSource) Reset() error {
	if _, err := s.r.Seek(0, io.SeekStart); err != nil {
		return err
	}
	s.dec.br.Reset(s.r)
	return s.dec.init()
}

// Close implements Source, closing the underlying file when the source was
// created by OpenFile.
func (s *FileSource) Close() error {
	if s.closer != nil {
		return s.closer.Close()
	}
	return nil
}
