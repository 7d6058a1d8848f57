package trace

import (
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
)

// segBufPool recycles the raw byte buffers segments are read into. All
// segments of one file are near DefaultSegmentBytes, so the pool converges
// on uniformly sized buffers.
var segBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, DefaultSegmentBytes+DefaultSegmentBytes/4)
		return &b
	},
}

func getSegBuf(n int64) []byte {
	b := *segBufPool.Get().(*[]byte)
	if int64(cap(b)) < n {
		return make([]byte, n)
	}
	return b[:n]
}

func putSegBuf(b []byte) {
	b = b[:0]
	segBufPool.Put(&b)
}

// readSegment pulls one segment's record bytes through the shared ReaderAt
// and verifies them against the index entry. The returned buffer comes
// from segBufPool; return it with putSegBuf.
func readSegment(r io.ReaderAt, seg Segment) ([]byte, error) {
	buf := getSegBuf(seg.Len)
	n, err := r.ReadAt(buf, seg.Off)
	if err != nil && !(errors.Is(err, io.EOF) && int64(n) == seg.Len) {
		putSegBuf(buf)
		return nil, fmt.Errorf("trace: reading segment at %d: %w", seg.Off, coalesceEOF(err))
	}
	if err := verifySegment(buf, seg); err != nil {
		putSegBuf(buf)
		return nil, err
	}
	return buf, nil
}

// segWindow is one decoded window of a segment, sized by the batch pool.
type segWindow struct {
	buf []Access
	n   int
}

// decodeSegmentWindows decodes a whole segment into pooled
// DefaultBatchSize windows.
func decodeSegmentWindows(r io.ReaderAt, seg Segment, nodes int) ([]segWindow, error) {
	data, err := readSegment(r, seg)
	if err != nil {
		return nil, err
	}
	defer putSegBuf(data)
	dec := newSegmentDecoder(data, seg, nodes)
	wins := make([]segWindow, 0, int(seg.Count)/DefaultBatchSize+1)
	for dec.left > 0 {
		buf := GetBatch()
		n, err := dec.next(buf)
		if err != nil {
			PutBatch(buf)
			for _, w := range wins {
				PutBatch(w.buf)
			}
			return nil, err
		}
		wins = append(wins, segWindow{buf: buf, n: n})
	}
	// dec.left reached zero inside next, which also verified no bytes
	// trail the final record; a lying count with spare bytes errors there.
	return wins, nil
}

// decodeSegmentSlab decodes a whole segment into one freshly allocated
// contiguous slab — the immutable form the SegmentCache shares across
// consumers. Unlike decodeSegmentWindows the result owes nothing to the
// batch pools, so cached slabs can never be recycled under a reader.
func decodeSegmentSlab(r io.ReaderAt, seg Segment, nodes int) ([]Access, error) {
	data, err := readSegment(r, seg)
	if err != nil {
		return nil, err
	}
	defer putSegBuf(data)
	out := make([]Access, seg.Count)
	dec := newSegmentDecoder(data, seg, nodes)
	filled := 0
	for dec.left > 0 {
		n, err := dec.next(out[filled:])
		if err != nil {
			return nil, err
		}
		filled += n
	}
	// The slab is exactly Count long, so the loop exits the moment the last
	// record lands and the trailing-bytes check inside next has not run;
	// one extra read (which must report EOF) performs it.
	var dummy [1]Access
	if _, err := dec.next(dummy[:]); err != io.EOF {
		return nil, err
	}
	return out[:filled], nil
}

// segEntry is one decoded segment queued for in-order delivery: either
// pooled windows (uncached decode) or a pinned cache slab — never both.
type segEntry struct {
	wins []segWindow
	pin  *PinnedSegment
	err  error
}

// discard recycles or releases whatever the entry holds.
func (e *segEntry) discard() {
	for _, w := range e.wins {
		PutBatch(w.buf)
	}
	e.wins = nil
	if e.pin != nil {
		e.pin.Release()
		e.pin = nil
	}
}

// segPipe is the parallel decode pipeline behind IndexedFileSource's
// sequential face: workers claim segments in file order, decode them
// concurrently through the shared io.ReaderAt, and publish the results
// into a reorder buffer the consumer drains strictly in segment order. A
// slot semaphore bounds decoded-but-unconsumed segments, so a slow
// consumer applies backpressure instead of the pipeline buffering the
// whole file.
type segPipe struct {
	r     io.ReaderAt
	idx   *Index
	cache *SegmentCache // nil = decode into pooled windows
	id    FileID        // cache identity, set when cache != nil
	mu    sync.Mutex
	cond  *sync.Cond
	ready map[int]segEntry
	next  int // next segment the consumer needs
	claim int // next segment a worker will take (guarded by mu)
	stop  bool
	stopC chan struct{}
	slots chan struct{}
	wg    sync.WaitGroup
}

func newSegPipe(r io.ReaderAt, idx *Index, workers int, cache *SegmentCache, id FileID) *segPipe {
	if workers > len(idx.Segments) {
		workers = len(idx.Segments)
	}
	if workers < 1 {
		workers = 1
	}
	p := &segPipe{
		r:     r,
		idx:   idx,
		cache: cache,
		id:    id,
		ready: make(map[int]segEntry),
		stopC: make(chan struct{}),
		slots: make(chan struct{}, workers+2),
	}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *segPipe) worker() {
	defer p.wg.Done()
	for {
		// Hold a slot before claiming, so every claimed segment is
		// guaranteed to publish: the in-order consumer always finds its
		// next segment either ready or on a slotted worker.
		select {
		case p.slots <- struct{}{}:
		case <-p.stopC:
			return
		}
		p.mu.Lock()
		if p.stop || p.claim >= len(p.idx.Segments) {
			p.mu.Unlock()
			<-p.slots
			return
		}
		i := p.claim
		p.claim++
		p.mu.Unlock()

		var e segEntry
		if p.cache != nil {
			seg := p.idx.Segments[i]
			pin, err := p.cache.Acquire(p.id, i, func() ([]Access, error) {
				return decodeSegmentSlab(p.r, seg, p.idx.Header.Nodes)
			})
			e = segEntry{pin: pin, err: err}
		} else {
			wins, err := decodeSegmentWindows(p.r, p.idx.Segments[i], p.idx.Header.Nodes)
			e = segEntry{wins: wins, err: err}
		}
		err := e.err
		p.mu.Lock()
		if p.stop {
			p.mu.Unlock()
			e.discard()
			<-p.slots
			return
		}
		p.ready[i] = e
		if err != nil {
			// Decode failures surface to the consumer in order; segments
			// past the bad one would be wasted work.
			p.claim = len(p.idx.Segments)
		}
		p.cond.Broadcast()
		p.mu.Unlock()
	}
}

// nextSegment blocks until the next in-order segment is decoded and
// returns its entry (pooled windows or a pinned cache slab). It returns
// io.EOF after the final segment and the decode error of the first bad
// segment.
func (p *segPipe) nextSegment() (segEntry, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.next >= len(p.idx.Segments) {
		return segEntry{}, io.EOF
	}
	for {
		if p.stop {
			return segEntry{}, io.EOF
		}
		if e, ok := p.ready[p.next]; ok {
			delete(p.ready, p.next)
			p.next++
			<-p.slots
			return e, e.err
		}
		p.cond.Wait()
	}
}

// halt stops the workers, waits them out, and recycles every buffer still
// queued. After halt the pipe is inert.
func (p *segPipe) halt() {
	p.mu.Lock()
	if !p.stop {
		p.stop = true
		close(p.stopC)
	}
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
	for i, e := range p.ready {
		e.discard()
		delete(p.ready, i)
	}
}

// IndexedFileSource is a Source decoding an MTR3 trace through its segment
// index: up to decoders goroutines decode segments concurrently via a
// shared io.ReaderAt, and the Source face reassembles them in segment
// order, so consumers see exactly the sequential access stream.
//
// The decode pipeline starts lazily at the first read, and Reset returns
// the source to the unstarted state. Sharded runs read this face too: the
// demux producer pulls the reassembled stream while the workers decode
// ahead of it.
//
// Like every Source, an IndexedFileSource is driven by one consumer
// goroutine at a time.
type IndexedFileSource struct {
	r        io.ReaderAt
	closer   io.Closer
	idx      *Index
	decoders int

	cache  *SegmentCache // nil = caching off
	fileID FileID
	hasID  bool // file identity known (opened from a real path)

	pipe *segPipe
	wins []segWindow
	pin  *PinnedSegment // pin backing cur when it is a cache slab
	cur  []Access
	pos  int
	err  error
}

// NewIndexedSource builds an IndexedFileSource over any io.ReaderAt (which
// must be safe for concurrent ReadAt, as *os.File and *bytes.Reader are).
// size is the total trace length in bytes. decoders bounds the concurrent
// segment decoders; 0 means GOMAXPROCS. MTR1/MTR2 input fails with
// ErrNoIndex; FileSource still reads those, for conversion.
func NewIndexedSource(r io.ReaderAt, size int64, decoders int) (*IndexedFileSource, error) {
	idx, err := ReadIndex(r, size)
	if err != nil {
		return nil, err
	}
	if decoders <= 0 {
		decoders = runtime.GOMAXPROCS(0)
	}
	return &IndexedFileSource{r: r, idx: idx, decoders: decoders}, nil
}

// OpenIndexedFile opens path as an IndexedFileSource. The caller must
// Close it. Non-MTR3 traces fail with ErrNoIndex.
func OpenIndexedFile(path string, decoders int) (*IndexedFileSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	src, err := NewIndexedSource(f, fi.Size(), decoders)
	if err != nil {
		f.Close()
		return nil, err
	}
	src.closer = f
	src.fileID, src.hasID = fileIDFor(path, fi)
	return src, nil
}

// WithCache attaches the shared decoded-segment cache: subsequent decodes
// consult it before touching the raw bytes. A nil cache, an
// already-started pipeline, or a source without file identity
// (NewIndexedSource over a bare ReaderAt) leaves the source uncached.
// Returns s for chaining.
func (s *IndexedFileSource) WithCache(c *SegmentCache) *IndexedFileSource {
	if c != nil && s.hasID && s.pipe == nil {
		s.cache = c
	}
	return s
}

// OpenFileParallelCache opens an MTR3 file for replay: an
// IndexedFileSource with up to decoders (0 = GOMAXPROCS) concurrent
// segment decoders, attached to the shared decoded-segment cache (nil =
// caching off). This is how the CLIs and sim.Run open -trace files. A v1
// or v2 file fails with an error wrapping ErrNoIndex that names the
// one-shot conversion (`tracegen -in old.mtr -o new.mtr`), and a v3 file
// with a damaged index fails loudly; neither degrades to a sequential
// decode.
func OpenFileParallelCache(path string, decoders int, cache *SegmentCache) (Source, error) {
	src, err := OpenIndexedFile(path, decoders)
	if errors.Is(err, ErrNoIndex) {
		return nil, fmt.Errorf("%s: %w; convert it once with: tracegen -in %s -o new.mtr", path, err, path)
	}
	if err != nil {
		return nil, err
	}
	return src.WithCache(cache), nil
}

// Header returns the trace geometry header.
func (s *IndexedFileSource) Header() Header { return s.idx.Header }

// Index returns the decoded segment index. The caller must not mutate it.
func (s *IndexedFileSource) Index() *Index { return s.idx }

// advance recycles the drained window (or releases the drained cache pin)
// and installs the next one, starting the pipeline on first use.
func (s *IndexedFileSource) advance() error {
	if s.cur != nil {
		if s.pin != nil {
			// A pinned cache slab is shared and immutable: release the pin,
			// never recycle the memory into the batch pools.
			s.pin.Release()
			s.pin = nil
		} else {
			PutBatch(s.cur)
		}
		s.cur = nil
		s.pos = 0
	}
	for {
		if s.err != nil {
			return s.err
		}
		if len(s.wins) == 0 {
			if s.pipe == nil {
				s.pipe = newSegPipe(s.r, s.idx, s.decoders, s.cache, s.fileID)
			}
			e, err := s.pipe.nextSegment()
			if err != nil {
				s.err = err
				e.discard()
				return err
			}
			if e.pin != nil {
				if accs := e.pin.Accesses(); len(accs) > 0 {
					s.pin = e.pin
					s.cur = accs
					s.pos = 0
					return nil
				}
				e.pin.Release()
				continue
			}
			s.wins = e.wins
			continue
		}
		w := s.wins[0]
		s.wins = s.wins[1:]
		if w.n > 0 {
			s.cur = w.buf[:w.n]
			s.pos = 0
			return nil
		}
		PutBatch(w.buf)
	}
}

// Next implements Source.
func (s *IndexedFileSource) Next() (Access, error) {
	if s.pos >= len(s.cur) {
		if err := s.advance(); err != nil {
			return Access{}, err
		}
	}
	a := s.cur[s.pos]
	s.pos++
	return a, nil
}

// NextBatch implements BatchReader.
func (s *IndexedFileSource) NextBatch(buf []Access) (int, error) {
	if s.pos >= len(s.cur) {
		if err := s.advance(); err != nil {
			return 0, err
		}
	}
	n := copy(buf, s.cur[s.pos:])
	s.pos += n
	return n, nil
}

// drain quiesces the pipeline and recycles every in-flight buffer.
func (s *IndexedFileSource) drain() {
	if s.pipe != nil {
		s.pipe.halt()
		s.pipe = nil
	}
	for _, w := range s.wins {
		PutBatch(w.buf)
	}
	s.wins = nil
	if s.cur != nil {
		if s.pin != nil {
			s.pin.Release()
			s.pin = nil
		} else {
			PutBatch(s.cur)
		}
		s.cur = nil
	}
	s.pos = 0
	s.err = nil
}

// Reset implements Source, returning to the first access with the
// pipeline unstarted (it relaunches lazily at the next read).
func (s *IndexedFileSource) Reset() error {
	s.drain()
	return nil
}

// Close implements Source, closing the underlying file when the source
// was opened by OpenIndexedFile.
func (s *IndexedFileSource) Close() error {
	s.drain()
	s.err = io.EOF
	if s.closer != nil {
		return s.closer.Close()
	}
	return nil
}
