// Package workload generates synthetic shared-memory traces that stand in
// for the paper's Tango-generated SPLASH traces (Cholesky, LocusRoute,
// MP3D, Pthor, Water). This is the substitution documented in DESIGN.md §4:
// we do not have the 1993 binaries, inputs, or Tango, so we model each
// application as a mix of the sharing idioms the paper identifies —
// migratory objects under locks, shared task queues, read-shared tables,
// producer/consumer pairs, and node-affine ("mostly private") data — with
// per-application proportions and object sizes chosen to match each
// program's published fingerprint.
//
// The generator models sixteen processors executing concurrently: each node
// runs a sequence of episodes (a critical section, a table lookup, a
// produce or consume step), and the emitted trace is a fine-grained random
// interleaving of the per-node access streams. Episodes on one migratory
// object are serialized by a lock, exactly as lock-protected data is in the
// source programs; accesses from episodes on *different* objects interleave
// freely, which is what makes false sharing visible at large block sizes.
//
// All generation is deterministic given (profile, nodes, seed, length).
package workload

import (
	"fmt"
	"io"
	"math/rand"

	"migratory/internal/memory"
	"migratory/internal/trace"
)

// wordSize is the access granularity in bytes.
const wordSize = 4

// Kind classifies a segment's sharing idiom.
type Kind uint8

const (
	// Migratory objects are read and written under a lock by one node at a
	// time, with the accessing node changing between episodes (lock-
	// protected records, task queue entries).
	Migratory Kind = iota
	// ReadShared objects are read concurrently by many nodes and written
	// rarely (cost tables, configuration, netlists).
	ReadShared
	// ProducerConsumer objects alternate between a write episode by a
	// fixed producer and a read episode by some other node.
	ProducerConsumer
	// MostlyPrivate objects belong to one node, which reads and writes
	// them; other nodes occasionally read them (partitioned matrices,
	// per-processor work regions that neighbours inspect).
	MostlyPrivate
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Migratory:
		return "migratory"
	case ReadShared:
		return "read-shared"
	case ProducerConsumer:
		return "producer-consumer"
	case MostlyPrivate:
		return "mostly-private"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Segment describes one homogeneous region of an application's shared data.
type Segment struct {
	// Name describes the segment ("particles", "cost array", ...).
	Name string
	// Kind selects the sharing idiom.
	Kind Kind
	// Objects is the number of objects in the segment.
	Objects int
	// ObjWords is the object size in 4-byte words.
	ObjWords int
	// StrideBytes is the distance between consecutive object base
	// addresses; packing objects tighter than the block size produces
	// false sharing at large blocks. Zero defaults to the object size.
	StrideBytes int
	// Weight is the segment's share of episodes (relative to the other
	// segments of the profile).
	Weight float64
	// Sharers bounds how many nodes touch the segment (0 = all nodes).
	Sharers int
	// WriteEveryN makes one in N read-shared episodes a write episode
	// (0 = written only during initialization).
	WriteEveryN int
	// SweepFraction is the fraction of an object's words an episode
	// touches (clamped to [0,1]; 0 defaults to 1: full sweep).
	SweepFraction float64
	// Revisits controls temporal locality: episodes draw objects from a
	// sliding working-set window that advances one object every Revisits
	// episodes, so each object is visited about Revisits times per sweep
	// of the segment (real SPLASH programs process their records in index
	// order, repeatedly). 0 disables the window: objects are drawn
	// uniformly.
	Revisits int
	// WindowObjects is the size of the sliding window in objects
	// (0 = Objects/12, minimum 16). The window also creates the spatial
	// clustering that makes false sharing visible at large block sizes:
	// concurrent episodes work on neighbouring objects.
	WindowObjects int
	// EpisodeObjects makes each read-shared episode sweep this many
	// consecutive objects, with each node cycling through the current
	// window at its own cursor. This models the per-node re-reference of
	// remote shared tables (source panels, cost grids, other processors'
	// molecules) whose reloads dominate small-cache traffic: with a cache
	// larger than the window the re-reads hit; below it they miss and
	// generate messages no protocol can remove. 0 = 1 object, random.
	EpisodeObjects int
}

func (s Segment) stride() int {
	if s.StrideBytes > 0 {
		return s.StrideBytes
	}
	return s.ObjWords * wordSize
}

func (s Segment) sweepWords() int {
	f := s.SweepFraction
	if f <= 0 || f > 1 {
		f = 1
	}
	w := int(f * float64(s.ObjWords))
	if w < 1 {
		w = 1
	}
	return w
}

// Validate checks segment parameters.
func (s Segment) Validate() error {
	if s.Objects <= 0 {
		return fmt.Errorf("workload: segment %q has %d objects", s.Name, s.Objects)
	}
	if s.ObjWords <= 0 {
		return fmt.Errorf("workload: segment %q has %d words per object", s.Name, s.ObjWords)
	}
	if s.StrideBytes != 0 && s.StrideBytes < s.ObjWords*wordSize {
		return fmt.Errorf("workload: segment %q stride %d smaller than object size %d",
			s.Name, s.StrideBytes, s.ObjWords*wordSize)
	}
	if s.Weight <= 0 {
		return fmt.Errorf("workload: segment %q has weight %v", s.Name, s.Weight)
	}
	if s.Kind > MostlyPrivate {
		return fmt.Errorf("workload: segment %q has unknown kind %d", s.Name, s.Kind)
	}
	return nil
}

// FootprintBytes is the address-space extent of the segment.
func (s Segment) FootprintBytes() int { return s.Objects * s.stride() }

// Profile describes one application.
type Profile struct {
	// Name is the application name as the paper's tables spell it.
	Name string
	// Segments composes the shared data.
	Segments []Segment
	// DefaultLength is the trace length used when the caller passes 0.
	DefaultLength int
}

// Validate checks the profile.
func (p Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("workload: profile has no name")
	}
	if len(p.Segments) == 0 {
		return fmt.Errorf("workload: profile %q has no segments", p.Name)
	}
	for _, s := range p.Segments {
		if err := s.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// FootprintKB is the total shared footprint in kilobytes.
func (p Profile) FootprintKB() int {
	total := 0
	for _, s := range p.Segments {
		total += s.FootprintBytes()
	}
	return total / 1024
}

// Generator produces the interleaved trace.
type Generator struct {
	prof  Profile
	nodes int
	rng   *rand.Rand

	segs []*segState
	cum  []float64 // cumulative weights

	// Per-node in-flight episode.
	episodes []episode
}

type segState struct {
	seg  Segment
	base memory.Addr
	// lastOwner of each object (migratory handoff avoidance).
	lastOwner []memory.NodeID
	// locked marks objects with an in-flight exclusive episode.
	locked []bool
	// epoch: for ProducerConsumer, false = needs produce, true = needs
	// consume.
	produced []bool
	// episodeCount advances the working-set window.
	episodeCount int
	// cursor is each node's position for chunked read-shared sweeps.
	cursor [memory.MaxNodes]int
}

// windowSpan returns the start and size of the current working-set window.
func (st *segState) windowSpan() (start, size int) {
	size = st.seg.WindowObjects
	if size <= 0 {
		size = st.seg.Objects / 12
	}
	if size < 16 {
		size = 16
	}
	if size > st.seg.Objects {
		size = st.seg.Objects
	}
	start = 0
	if st.seg.Revisits > 0 {
		start = (st.episodeCount / st.seg.Revisits) % st.seg.Objects
	}
	return start, size
}

// pickObject draws an object index, from the sliding working-set window
// when the segment has one, uniformly otherwise.
func (st *segState) pickObject(rng *rand.Rand) int {
	st.episodeCount++
	if st.seg.Revisits <= 0 {
		return rng.Intn(st.seg.Objects)
	}
	start, size := st.windowSpan()
	return (start + rng.Intn(size)) % st.seg.Objects
}

// episode is a node's in-flight access sequence. Its accs buffer is reused
// across episodes of the same node, so steady-state generation does not
// allocate per episode (which keeps streamed sweeps at constant memory).
type episode struct {
	accs []trace.Access
	pos  int
	// lockSeg/lockObj, when lockSeg is non-nil, identify the object lock to
	// release at episode end.
	lockSeg *segState
	lockObj int
}

func (e *episode) done() bool { return e.pos >= len(e.accs) }

// release drops the episode's object lock, if it holds one.
func (e *episode) release() {
	if e.lockSeg != nil {
		e.lockSeg.locked[e.lockObj] = false
		e.lockSeg = nil
	}
}

// NewGenerator builds a generator for the profile. The profile must be
// valid and nodes in [2, memory.MaxNodes].
func NewGenerator(p Profile, nodes int, seed int64) (*Generator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if nodes < 2 || nodes > memory.MaxNodes {
		return nil, fmt.Errorf("workload: node count %d out of range [2,%d]", nodes, memory.MaxNodes)
	}
	g := &Generator{
		prof:     p,
		nodes:    nodes,
		rng:      rand.New(rand.NewSource(seed)),
		episodes: make([]episode, nodes),
	}
	var base memory.Addr
	var cum float64
	for _, seg := range p.Segments {
		st := &segState{
			seg:       seg,
			base:      base,
			lastOwner: make([]memory.NodeID, seg.Objects),
			locked:    make([]bool, seg.Objects),
			produced:  make([]bool, seg.Objects),
		}
		for i := range st.lastOwner {
			st.lastOwner[i] = memory.NoNode
		}
		g.segs = append(g.segs, st)
		cum += seg.Weight
		g.cum = append(g.cum, cum)
		// Segments are padded to page boundaries so that placement
		// decisions for one segment do not leak into the next.
		base += memory.Addr((seg.FootprintBytes() + 8191) / 4096 * 4096)
	}
	return g, nil
}

// Generate emits exactly n accesses into a fresh slice.
func (g *Generator) Generate(n int) []trace.Access {
	out := make([]trace.Access, 0, n+64)
	for len(out) < n {
		out = append(out, g.next())
	}
	return out
}

// next emits the next access of the interleaved trace. Generate and the
// streaming Source both funnel through it, consuming the generator's random
// stream in exactly the same order, so a streamed trace is bit-identical to
// a materialized one.
func (g *Generator) next() trace.Access {
	for {
		node := memory.NodeID(g.rng.Intn(g.nodes))
		ep := &g.episodes[node]
		if ep.done() {
			ep.release()
			buf := ep.accs[:0]
			*ep = g.newEpisode(node, buf)
			if ep.accs == nil {
				ep.accs = buf // keep the buffer across empty episodes
			}
			if ep.done() {
				continue // node found nothing runnable this tick
			}
		}
		a := ep.accs[ep.pos]
		ep.pos++
		if ep.done() {
			ep.release()
		}
		return a
	}
}

func (g *Generator) pickSegment() *segState {
	x := g.rng.Float64() * g.cum[len(g.cum)-1]
	for i, c := range g.cum {
		if x < c {
			return g.segs[i]
		}
	}
	return g.segs[len(g.segs)-1]
}

func (g *Generator) newEpisode(n memory.NodeID, buf []trace.Access) episode {
	st := g.pickSegment()
	switch st.seg.Kind {
	case Migratory:
		return g.migratoryEpisode(st, n, buf)
	case ReadShared:
		return g.readSharedEpisode(st, n, buf)
	case ProducerConsumer:
		return g.producerConsumerEpisode(st, n, buf)
	case MostlyPrivate:
		return g.mostlyPrivateEpisode(st, n, buf)
	}
	return episode{}
}

// nodeInSharers maps node n into the segment's sharer set.
func (st *segState) nodeInSharers(n memory.NodeID, nodes int) memory.NodeID {
	if st.seg.Sharers <= 0 || st.seg.Sharers >= nodes {
		return n
	}
	return memory.NodeID(int(n) % st.seg.Sharers)
}

func (st *segState) addr(obj, word int) memory.Addr {
	return st.base + memory.Addr(obj*st.seg.stride()+word*wordSize)
}

// rwSweep appends a read-all-then-write-all access list over the first
// `words` words of an object — the access pattern of a critical section
// that inspects and then updates a record — into buf and returns it.
func (st *segState) rwSweep(buf []trace.Access, n memory.NodeID, obj, words int) []trace.Access {
	for w := 0; w < words; w++ {
		buf = append(buf, trace.Access{Node: n, Kind: trace.Read, Addr: st.addr(obj, w)})
	}
	for w := 0; w < words; w++ {
		buf = append(buf, trace.Access{Node: n, Kind: trace.Write, Addr: st.addr(obj, w)})
	}
	return buf
}

func (st *segState) readSweep(buf []trace.Access, n memory.NodeID, obj, words int) []trace.Access {
	for w := 0; w < words; w++ {
		buf = append(buf, trace.Access{Node: n, Kind: trace.Read, Addr: st.addr(obj, w)})
	}
	return buf
}

func (g *Generator) migratoryEpisode(st *segState, n memory.NodeID, buf []trace.Access) episode {
	n = st.nodeInSharers(n, g.nodes)
	// Find an unlocked object this node did not own last (a node re-taking
	// its own lock immediately is possible but rare in the modeled apps).
	for try := 0; try < 8; try++ {
		obj := st.pickObject(g.rng)
		if st.locked[obj] {
			continue
		}
		if st.lastOwner[obj] == n && st.seg.Objects > 1 && try < 7 {
			continue
		}
		st.locked[obj] = true
		st.lastOwner[obj] = n
		return episode{
			accs:    st.rwSweep(buf, n, obj, st.seg.sweepWords()),
			lockSeg: st, lockObj: obj,
		}
	}
	return episode{}
}

func (g *Generator) readSharedEpisode(st *segState, n memory.NodeID, buf []trace.Access) episode {
	obj := st.pickObject(g.rng)
	words := st.seg.sweepWords()
	if st.seg.WriteEveryN > 0 && g.rng.Intn(st.seg.WriteEveryN) == 0 && !st.locked[obj] {
		st.locked[obj] = true
		return episode{
			accs:    st.rwSweep(buf, n, obj, words),
			lockSeg: st, lockObj: obj,
		}
	}
	k := st.seg.EpisodeObjects
	if k <= 1 {
		return episode{accs: st.readSweep(buf, n, obj, words)}
	}
	// Chunked sweep: node n reads k consecutive objects at its own cursor
	// within the current window, cycling so that the node re-reads the
	// same window contents every size/k episodes.
	start, size := st.windowSpan()
	if k > size {
		k = size
	}
	for i := 0; i < k; i++ {
		o := (start + (st.cursor[n]+i)%size) % st.seg.Objects
		buf = st.readSweep(buf, n, o, words)
	}
	st.cursor[n] = (st.cursor[n] + k) % size
	return episode{accs: buf}
}

func (g *Generator) producerConsumerEpisode(st *segState, n memory.NodeID, buf []trace.Access) episode {
	// Each object has a fixed producer derived from its index.
	for try := 0; try < 8; try++ {
		obj := st.pickObject(g.rng)
		if st.locked[obj] {
			continue
		}
		producer := memory.NodeID(obj % g.nodes)
		words := st.seg.sweepWords()
		if !st.produced[obj] {
			if n != producer {
				continue
			}
			st.locked[obj] = true
			st.produced[obj] = true
			return episode{
				accs:    writeSweep(st, buf, n, obj, words),
				lockSeg: st, lockObj: obj,
			}
		}
		if n == producer {
			continue
		}
		st.locked[obj] = true
		st.produced[obj] = false
		return episode{
			accs:    st.readSweep(buf, n, obj, words),
			lockSeg: st, lockObj: obj,
		}
	}
	return episode{}
}

func writeSweep(st *segState, buf []trace.Access, n memory.NodeID, obj, words int) []trace.Access {
	for w := 0; w < words; w++ {
		buf = append(buf, trace.Access{Node: n, Kind: trace.Write, Addr: st.addr(obj, w)})
	}
	return buf
}

func (g *Generator) mostlyPrivateEpisode(st *segState, n memory.NodeID, buf []trace.Access) episode {
	words := st.seg.sweepWords()
	// 90% of episodes work on the node's own objects (read/write); 10%
	// read a random other node's object.
	if g.rng.Intn(10) > 0 {
		own := g.ownObject(st, n)
		if own < 0 {
			return episode{}
		}
		if st.locked[own] {
			return episode{}
		}
		st.locked[own] = true
		st.lastOwner[own] = n
		return episode{
			accs:    st.rwSweep(buf, n, own, words),
			lockSeg: st, lockObj: own,
		}
	}
	obj := g.rng.Intn(st.seg.Objects)
	return episode{accs: st.readSweep(buf, n, obj, words)}
}

// ownObject picks a random object owned by node n. Objects are partitioned
// in contiguous chunks (node 0 owns the first Objects/nodes, and so on), as
// real programs partition their work regions — this keeps each page mostly
// single-owner, which is what lets the usage-based placement of §3.3 make
// node-affine accesses local.
func (g *Generator) ownObject(st *segState, n memory.NodeID) int {
	lo := int(n) * st.seg.Objects / g.nodes
	hi := (int(n) + 1) * st.seg.Objects / g.nodes
	if hi <= lo {
		return -1
	}
	return lo + g.rng.Intn(hi-lo)
}

// Generate is the package-level convenience: build a generator and emit a
// trace of the given length (0 = the profile's default; negative is an
// error).
func Generate(p Profile, nodes int, seed int64, length int) ([]trace.Access, error) {
	g, length, err := newLengthGenerator(p, nodes, seed, length)
	if err != nil {
		return nil, err
	}
	return g.Generate(length), nil
}

// newLengthGenerator builds the generator behind Generate and NewSource and
// resolves the requested length: 0 means the profile's default, and a
// negative length is rejected rather than yielding an empty trace.
func newLengthGenerator(p Profile, nodes int, seed int64, length int) (*Generator, int, error) {
	if length < 0 {
		return nil, 0, fmt.Errorf("workload: negative trace length %d (want 0 for the profile default or >= 1)", length)
	}
	g, err := NewGenerator(p, nodes, seed)
	if err != nil {
		return nil, 0, err
	}
	if length == 0 {
		length = p.DefaultLength
	}
	return g, length, nil
}

// Source streams a generated trace access by access without ever
// materializing it: memory use is the generator's own state (segment
// bookkeeping plus in-flight episodes), independent of the trace length.
// The stream is bit-identical to Generate with the same parameters, and
// Reset replays it from the beginning by rebuilding the generator, so the
// two-pass placement/simulation workflow works unchanged.
type Source struct {
	prof    Profile
	nodes   int
	seed    int64
	length  int
	g       *Generator
	emitted int
}

// NewSource returns a streaming Source for the profile (length 0 = the
// profile's default length; negative is an error).
func NewSource(p Profile, nodes int, seed int64, length int) (*Source, error) {
	g, length, err := newLengthGenerator(p, nodes, seed, length)
	if err != nil {
		return nil, err
	}
	return &Source{prof: p, nodes: nodes, seed: seed, length: length, g: g}, nil
}

// Len returns the total number of accesses the source will emit.
func (s *Source) Len() int { return s.length }

// Next implements trace.Source.
func (s *Source) Next() (trace.Access, error) {
	if s.emitted >= s.length {
		return trace.Access{}, io.EOF
	}
	s.emitted++
	return s.g.next(), nil
}

// NextBatch implements trace.BatchReader. Batched and single-access pulls
// consume the generator's random stream in exactly the same order, so a
// batched run stays bit-identical to an unbatched one.
func (s *Source) NextBatch(buf []trace.Access) (int, error) {
	if s.emitted >= s.length {
		return 0, io.EOF
	}
	n := s.length - s.emitted
	if n > len(buf) {
		n = len(buf)
	}
	for i := 0; i < n; i++ {
		buf[i] = s.g.next()
	}
	s.emitted += n
	return n, nil
}

// Reset implements trace.Source by rebuilding the generator from the
// original parameters.
func (s *Source) Reset() error {
	g, err := NewGenerator(s.prof, s.nodes, s.seed)
	if err != nil {
		return err
	}
	s.g = g
	s.emitted = 0
	return nil
}

// Close implements trace.Source; it never fails.
func (s *Source) Close() error { return nil }
