package workload

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"migratory/internal/memory"
	"migratory/internal/trace"
)

var geom = memory.MustGeometry(16, 4096)

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		Migratory:        "migratory",
		ReadShared:       "read-shared",
		ProducerConsumer: "producer-consumer",
		MostlyPrivate:    "mostly-private",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q", uint8(k), k.String())
		}
	}
	if !strings.Contains(Kind(9).String(), "9") {
		t.Error("unknown kind string")
	}
}

func TestSegmentValidate(t *testing.T) {
	ok := Segment{Name: "x", Kind: Migratory, Objects: 10, ObjWords: 4, Weight: 1}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid segment rejected: %v", err)
	}
	bad := []Segment{
		{Name: "x", Objects: 0, ObjWords: 4, Weight: 1},
		{Name: "x", Objects: 10, ObjWords: 0, Weight: 1},
		{Name: "x", Objects: 10, ObjWords: 4, Weight: 0},
		{Name: "x", Objects: 10, ObjWords: 4, StrideBytes: 8, Weight: 1}, // stride < size
		{Name: "x", Kind: Kind(9), Objects: 10, ObjWords: 4, Weight: 1},
	}
	for i, s := range bad {
		if s.Validate() == nil {
			t.Errorf("bad segment %d accepted", i)
		}
	}
}

func TestProfileValidateAndFootprints(t *testing.T) {
	// The built-in profiles must match the paper's §3.1 footprints within
	// a few percent.
	want := map[string]int{
		"Cholesky":    1476,
		"Locus Route": 1232,
		"MP3D":        552,
		"Pthor":       2676,
		"Water":       200,
	}
	for _, p := range Profiles() {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
			continue
		}
		target, ok := want[p.Name]
		if !ok {
			t.Errorf("unexpected profile %q", p.Name)
			continue
		}
		got := p.FootprintKB()
		if math.Abs(float64(got-target))/float64(target) > 0.06 {
			t.Errorf("%s footprint = %d KB; paper says %d KB", p.Name, got, target)
		}
		if p.DefaultLength < 100_000 {
			t.Errorf("%s default length = %d", p.Name, p.DefaultLength)
		}
	}
	if len(Profiles()) != 5 {
		t.Fatalf("Profiles() returned %d profiles", len(Profiles()))
	}
}

func TestProfileByName(t *testing.T) {
	p, err := ProfileByName("MP3D")
	if err != nil || p.Name != "MP3D" {
		t.Fatalf("ProfileByName(MP3D) = %+v, %v", p.Name, err)
	}
	if _, err := ProfileByName("mp3d"); err == nil {
		t.Fatal("case-insensitive match accepted")
	}
}

func TestProfileValidateRejections(t *testing.T) {
	if (Profile{}).Validate() == nil {
		t.Error("empty profile accepted")
	}
	if (Profile{Name: "x"}).Validate() == nil {
		t.Error("segmentless profile accepted")
	}
	p := Profile{Name: "x", Segments: []Segment{{Name: "bad"}}}
	if p.Validate() == nil {
		t.Error("profile with bad segment accepted")
	}
}

func TestNewGeneratorValidation(t *testing.T) {
	p, _ := ProfileByName("Water")
	if _, err := NewGenerator(p, 1, 1); err == nil {
		t.Error("1 node accepted")
	}
	if _, err := NewGenerator(p, 65, 1); err == nil {
		t.Error("65 nodes accepted")
	}
	if _, err := NewGenerator(Profile{}, 16, 1); err == nil {
		t.Error("invalid profile accepted")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p, _ := ProfileByName("MP3D")
	a, err := Generate(p, 16, 42, 5000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(p, 16, 42, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different traces")
	}
	c, err := Generate(p, 16, 43, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestGenerateDefaultLength(t *testing.T) {
	p := Profile{
		Name:          "tiny",
		DefaultLength: 1234,
		Segments:      []Segment{{Name: "m", Kind: Migratory, Objects: 64, ObjWords: 4, Weight: 1}},
	}
	accs, err := Generate(p, 4, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(accs) < 1234 || len(accs) > 1234+16 {
		t.Fatalf("len = %d; want ~1234", len(accs))
	}
}

// TestGenerateNegativeLength: a negative length is a caller error, not a
// request for an empty trace, on both the materialized and streamed paths.
func TestGenerateNegativeLength(t *testing.T) {
	p, _ := ProfileByName("MP3D")
	if accs, err := Generate(p, 16, 1, -5); err == nil {
		t.Fatalf("Generate accepted length -5 (%d accesses)", len(accs))
	}
	if src, err := NewSource(p, 16, 1, -5); err == nil {
		t.Fatalf("NewSource accepted length -5 (Len %d)", src.Len())
	}
}

func TestGenerateBasicShape(t *testing.T) {
	for _, p := range Profiles() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			accs, err := Generate(p, 16, 7, 40_000)
			if err != nil {
				t.Fatal(err)
			}
			st := trace.Analyze(accs, geom)
			if st.Nodes < 12 {
				t.Errorf("only %d nodes active", st.Nodes)
			}
			if st.Writes == 0 || st.Reads == 0 {
				t.Errorf("reads %d writes %d", st.Reads, st.Writes)
			}
			// Addresses stay within the padded footprint.
			var limit memory.Addr
			for _, s := range p.Segments {
				limit += memory.Addr((s.FootprintBytes() + 8191) / 4096 * 4096)
			}
			for _, a := range accs {
				if a.Addr >= limit {
					t.Fatalf("address %#x beyond footprint %#x", a.Addr, limit)
				}
			}
		})
	}
}

// TestMigratorySegmentLooksMigratory: a pure migratory profile produces
// blocks the off-line classifier labels migratory.
func TestMigratorySegmentLooksMigratory(t *testing.T) {
	p := Profile{
		Name:     "pure-migratory",
		Segments: []Segment{{Name: "m", Kind: Migratory, Objects: 32, ObjWords: 4, Weight: 1}},
	}
	accs, err := Generate(p, 8, 3, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	st := trace.Analyze(accs, geom)
	total := st.MigratoryBlocks + st.OtherBlocks + st.ReadSharedBlocks + st.PrivateBlocks
	if st.MigratoryBlocks*10 < total*8 {
		t.Fatalf("only %d/%d blocks migratory: %+v", st.MigratoryBlocks, total, st)
	}
}

// TestReadSharedSegmentLooksReadShared: with no writes after init the
// blocks classify read-shared or private.
func TestReadSharedSegmentLooksReadShared(t *testing.T) {
	p := Profile{
		Name:     "pure-readshared",
		Segments: []Segment{{Name: "r", Kind: ReadShared, Objects: 64, ObjWords: 4, Weight: 1}},
	}
	accs, err := Generate(p, 8, 3, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	st := trace.Analyze(accs, geom)
	if st.MigratoryBlocks != 0 {
		t.Fatalf("read-shared profile produced %d migratory blocks", st.MigratoryBlocks)
	}
	if st.Writes != 0 {
		t.Fatalf("pure read-shared profile wrote %d times", st.Writes)
	}
}

// TestMigratoryLockSerialization: accesses to one migratory object never
// interleave two nodes inside an episode (the lock holds).
func TestMigratoryLockSerialization(t *testing.T) {
	p := Profile{
		Name:     "locks",
		Segments: []Segment{{Name: "m", Kind: Migratory, Objects: 4, ObjWords: 8, Weight: 1}},
	}
	accs, err := Generate(p, 8, 9, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	// Episode = 8 reads then 8 writes by one node on one object. Walk the
	// per-object streams checking the pattern.
	type state struct {
		node memory.NodeID
		pos  int
	}
	cur := map[int]*state{}
	for i, a := range accs {
		obj := int(a.Addr / 32)
		word := int(a.Addr % 32 / 4)
		st, ok := cur[obj]
		if !ok || st.pos == 16 {
			st = &state{node: a.Node}
			cur[obj] = st
		}
		if a.Node != st.node {
			t.Fatalf("access %d: node %d intruded into node %d's episode on object %d", i, a.Node, st.node, obj)
		}
		wantWord := st.pos % 8
		wantKind := trace.Read
		if st.pos >= 8 {
			wantKind = trace.Write
		}
		if word != wantWord || a.Kind != wantKind {
			t.Fatalf("access %d: got word %d kind %v at episode pos %d", i, word, a.Kind, st.pos)
		}
		st.pos++
	}
}

// TestProducerConsumerAlternation: each object's trace alternates write
// episodes by its fixed producer with read episodes by others.
func TestProducerConsumerAlternation(t *testing.T) {
	p := Profile{
		Name:     "pc",
		Segments: []Segment{{Name: "q", Kind: ProducerConsumer, Objects: 8, ObjWords: 2, Weight: 1}},
	}
	accs, err := Generate(p, 4, 11, 5_000)
	if err != nil {
		t.Fatal(err)
	}
	lastKind := map[int]trace.Kind{}
	for i, a := range accs {
		obj := int(a.Addr / 8)
		producer := memory.NodeID(obj % 4)
		if a.Kind == trace.Write {
			if a.Node != producer {
				t.Fatalf("access %d: write by %d; producer is %d", i, a.Node, producer)
			}
		} else if a.Node == producer {
			t.Fatalf("access %d: producer %d consumed its own object", i, a.Node)
		}
		// Kinds alternate at word-0 boundaries.
		if int(a.Addr%8/4) == 0 {
			if prev, ok := lastKind[obj]; ok && prev == a.Kind {
				t.Fatalf("access %d: two consecutive %v episodes on object %d", i, a.Kind, obj)
			}
			lastKind[obj] = a.Kind
		}
	}
}

// TestMostlyPrivateAffinity: the owning node performs the large majority of
// accesses to its objects, and all writes.
func TestMostlyPrivateAffinity(t *testing.T) {
	p := Profile{
		Name:     "affine",
		Segments: []Segment{{Name: "w", Kind: MostlyPrivate, Objects: 64, ObjWords: 4, Weight: 1}},
	}
	accs, err := Generate(p, 8, 13, 40_000)
	if err != nil {
		t.Fatal(err)
	}
	own, foreign := 0, 0
	for i, a := range accs {
		obj := int(a.Addr / 16)
		owner := memory.NodeID(obj * 8 / 64) // contiguous partitioning

		if a.Node == owner {
			own++
		} else {
			foreign++
			if a.Kind == trace.Write {
				t.Fatalf("access %d: foreign write by %d to object of %d", i, a.Node, owner)
			}
		}
	}
	if own < foreign*3 {
		t.Fatalf("affinity too weak: own=%d foreign=%d", own, foreign)
	}
	if foreign == 0 {
		t.Fatal("no foreign reads at all")
	}
}

// TestSweepFraction: partial sweeps touch only the first words.
func TestSweepFraction(t *testing.T) {
	p := Profile{
		Name: "partial",
		Segments: []Segment{{
			Name: "m", Kind: Migratory, Objects: 4, ObjWords: 16, Weight: 1, SweepFraction: 0.25,
		}},
	}
	accs, err := Generate(p, 4, 17, 2_000)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range accs {
		if word := int(a.Addr % 64 / 4); word >= 4 {
			t.Fatalf("partial sweep touched word %d", word)
		}
	}
}

func TestSegmentHelpers(t *testing.T) {
	s := Segment{Name: "x", Kind: Migratory, Objects: 10, ObjWords: 4, Weight: 1}
	if s.stride() != 16 {
		t.Fatalf("default stride = %d", s.stride())
	}
	if s.FootprintBytes() != 160 {
		t.Fatalf("footprint = %d", s.FootprintBytes())
	}
	s.StrideBytes = 64
	if s.stride() != 64 || s.FootprintBytes() != 640 {
		t.Fatalf("explicit stride: %d / %d", s.stride(), s.FootprintBytes())
	}
	if s.sweepWords() != 4 {
		t.Fatalf("sweepWords = %d", s.sweepWords())
	}
	s.SweepFraction = 0.1 // rounds below 1 word -> clamps to 1
	if s.sweepWords() != 1 {
		t.Fatalf("sweepWords = %d", s.sweepWords())
	}
}

// TestSharersBound: a segment with Sharers=2 only ever sees two nodes.
func TestSharersBound(t *testing.T) {
	p := Profile{
		Name:     "pair",
		Segments: []Segment{{Name: "m", Kind: Migratory, Objects: 16, ObjWords: 4, Weight: 1, Sharers: 2}},
	}
	accs, err := Generate(p, 8, 19, 5_000)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range accs {
		if a.Node > 1 {
			t.Fatalf("node %d accessed a 2-sharer segment", a.Node)
		}
	}
}

func TestScale(t *testing.T) {
	p, _ := ProfileByName("Water")
	big, err := Scale(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	if big.FootprintKB() < p.FootprintKB()*19/10 {
		t.Fatalf("scaled footprint %d vs base %d", big.FootprintKB(), p.FootprintKB())
	}
	if big.DefaultLength != 2*p.DefaultLength {
		t.Fatalf("scaled length %d", big.DefaultLength)
	}
	if big.Name != "Water (x2)" {
		t.Fatalf("scaled name %q", big.Name)
	}
	// Windows are unscaled.
	if big.Segments[0].WindowObjects != p.Segments[0].WindowObjects {
		t.Fatal("window scaled")
	}
	// The scaled profile generates a valid trace.
	if _, err := Generate(big, 16, 1, 10_000); err != nil {
		t.Fatal(err)
	}

	small, err := Scale(p, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if small.FootprintKB() >= p.FootprintKB()/2 {
		t.Fatalf("shrink failed: %d", small.FootprintKB())
	}
	if _, err := Scale(p, 0); err == nil {
		t.Fatal("zero factor accepted")
	}
	if _, err := Scale(p, -1); err == nil {
		t.Fatal("negative factor accepted")
	}
	// Tiny factors clamp object counts to one rather than zero.
	tiny, err := Scale(p, 0.0001)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range tiny.Segments {
		if s.Objects < 1 {
			t.Fatal("object count fell to zero")
		}
	}
}
