package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"path/filepath"
	"testing"

	"migratory/internal/memory"
)

func mtrAccesses() []Access {
	return []Access{
		{Node: 0, Kind: Read, Addr: 0},
		{Node: 3, Kind: Write, Addr: 4096},
		{Node: 3, Kind: Read, Addr: 4080}, // negative delta
		{Node: 15, Kind: Write, Addr: 1 << 30},
		{Node: 1, Kind: Read, Addr: 16},
	}
}

func encodeMTR(t *testing.T, hdr Header, accs []Access) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, hdr)
	for _, a := range accs {
		if err := w.Write(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestMTRRoundTrip(t *testing.T) {
	hdr := Header{BlockSize: 16, PageSize: 4096, Nodes: 16}
	accs := mtrAccesses()
	data := encodeMTR(t, hdr, accs)

	src, err := NewFileSource(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if src.Header() != hdr {
		t.Fatalf("header %+v != %+v", src.Header(), hdr)
	}
	if g, ok := src.Header().Geometry(); !ok || g.BlockSize() != 16 {
		t.Fatalf("geometry = %v, %v", g, ok)
	}
	got, err := ReadAll(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(accs) {
		t.Fatalf("decoded %d accesses, want %d", len(got), len(accs))
	}
	for i := range accs {
		if got[i] != accs[i] {
			t.Fatalf("access %d: %v != %v", i, got[i], accs[i])
		}
	}
	// EOF persists and Reset rewinds to the first access.
	if _, err := src.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("post-EOF Next = %v", err)
	}
	if err := src.Reset(); err != nil {
		t.Fatal(err)
	}
	a, err := src.Next()
	if err != nil || a != accs[0] {
		t.Fatalf("after Reset: %v, %v", a, err)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestMTRRoundTripEmpty(t *testing.T) {
	data := encodeMTR(t, Header{}, nil)
	src, err := NewFileSource(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := ReadAll(src); err != nil || len(got) != 0 {
		t.Fatalf("empty trace: %v, %v", got, err)
	}
}

// TestMTRTruncation cuts a valid stream at every possible byte boundary:
// every cut must decode to ErrTruncated (never a silent short read, never
// a panic).
func TestMTRTruncation(t *testing.T) {
	data := encodeMTR(t, Header{BlockSize: 16, PageSize: 4096, Nodes: 16}, mtrAccesses())
	for cut := 0; cut < len(data); cut++ {
		src, err := NewFileSource(bytes.NewReader(data[:cut]))
		if err == nil {
			_, err = ReadAll(src)
		}
		if err == nil {
			t.Fatalf("cut at %d/%d decoded cleanly", cut, len(data))
		}
		if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrBadMagic) {
			t.Fatalf("cut at %d/%d: %v (want ErrTruncated or ErrBadMagic)", cut, len(data), err)
		}
	}
}

func TestMTRCorrupt(t *testing.T) {
	valid := encodeMTR(t, Header{Nodes: 4}, []Access{{Node: 1, Kind: Write, Addr: 64}})

	t.Run("trailing garbage", func(t *testing.T) {
		data := append(append([]byte{}, valid...), 0xAA)
		src, err := NewFileSource(bytes.NewReader(data))
		if err == nil {
			_, err = ReadAll(src)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})

	t.Run("wrong trailer count", func(t *testing.T) {
		// A v2 image, whose final byte IS the trailer count; in v3 the
		// trailer sits before the index and the cross-check is exercised by
		// the index tests.
		data := mtr2Image(valid)
		data[len(data)-1] = 7 // trailer says 7 records, stream has 1
		src, err := NewFileSource(bytes.NewReader(data))
		if err == nil {
			_, err = ReadAll(src)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})

	t.Run("node outside header", func(t *testing.T) {
		// Header says 4 nodes; hand-craft a record head for node 9.
		var buf bytes.Buffer
		buf.Write(magic2[:])
		buf.Write([]byte{0, 0, 4})        // header: unspecified geometry, 4 nodes
		buf.Write([]byte{byte(9<<1) + 1}) // head: node 9, read
		buf.Write([]byte{0})              // delta 0
		buf.Write([]byte{0, 1})           // trailer: 1 record
		src, err := NewFileSource(bytes.NewReader(buf.Bytes()))
		if err == nil {
			_, err = ReadAll(src)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})

	t.Run("implausible header", func(t *testing.T) {
		var buf bytes.Buffer
		buf.Write(magic2[:])
		buf.Write([]byte{0, 0, 65}) // 65 nodes > MaxNodes
		_, err := NewFileSource(bytes.NewReader(buf.Bytes()))
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})

	t.Run("bad magic", func(t *testing.T) {
		_, err := NewFileSource(bytes.NewReader([]byte("NOPE....")))
		if !errors.Is(err, ErrBadMagic) {
			t.Fatalf("got %v, want ErrBadMagic", err)
		}
	})
}

func TestMTRWriterRejections(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, Header{Nodes: memory.MaxNodes + 1})
	if err := w.Write(Access{}); err == nil {
		t.Fatal("invalid header accepted")
	}

	buf.Reset()
	w = NewWriter(&buf, Header{Nodes: 4})
	if err := w.Write(Access{Node: 4}); err == nil {
		t.Fatal("node outside header accepted")
	}

	buf.Reset()
	w = NewWriter(&buf, Header{})
	if err := w.Write(Access{Kind: Kind(3)}); err == nil {
		t.Fatal("impossible kind accepted")
	}

	buf.Reset()
	w = NewWriter(&buf, Header{})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(Access{}); err == nil {
		t.Fatal("Write after Close accepted")
	}
}

// legacyFixture names a committed pre-v3 trace: the same 2,000 MP3D
// accesses (16 nodes, seed 1993) written by the retired v1 and v2 writers.
func legacyFixture(version string) string {
	return filepath.Join("..", "..", "testdata", "legacy_"+version+".mtr")
}

// mtr2Image turns an MTR3 image into the MTR2 image of the same records:
// v3 is the v2 record stream plus an index and footer, so dropping those
// and swapping the magic is exact.
func mtr2Image(v3 []byte) []byte {
	indexOff := binary.LittleEndian.Uint64(v3[len(v3)-footerSize:])
	return append(append([]byte{}, magic2[:]...), v3[4:indexOff]...)
}

// readFile decodes a whole trace file through the sequential reader.
func readFile(t *testing.T, path string) (Header, []Access) {
	t.Helper()
	src, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	accs, err := ReadAll(src)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return src.Header(), accs
}

// TestFileSourceReadsLegacy decodes the committed MTR1 (fixed-record)
// fixture through the same FileSource, with a zero header, to the accesses
// of its v2 twin.
func TestFileSourceReadsLegacy(t *testing.T) {
	_, accs := readFile(t, legacyFixture("v2"))
	src, err := OpenFile(legacyFixture("v1"))
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if src.Header() != (Header{}) {
		t.Fatalf("legacy header = %+v, want zero", src.Header())
	}
	got, err := ReadAll(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(accs) {
		t.Fatalf("legacy fixture: %d accesses, want %d", len(got), len(accs))
	}
	for i := range accs {
		if got[i] != accs[i] {
			t.Fatalf("access %d: %v != %v", i, got[i], accs[i])
		}
	}
	if err := src.Reset(); err != nil {
		t.Fatal(err)
	}
	if again, err := ReadAll(src); err != nil || len(again) != len(accs) {
		t.Fatalf("legacy Reset: %d, %v", len(again), err)
	}
}

func TestMTRCopy(t *testing.T) {
	accs := mtrAccesses()
	var buf bytes.Buffer
	w := NewWriter(&buf, Header{})
	n, err := Copy(w, NewSliceSource(accs))
	if err != nil || n != len(accs) {
		t.Fatalf("Copy = %d, %v", n, err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	src, err := NewFileSource(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(src)
	if err != nil || len(got) != len(accs) {
		t.Fatalf("decode after Copy: %d, %v", len(got), err)
	}
}

// TestMTRCompactness: the varint-delta format, segment index included,
// should be much smaller than the 10-byte fixed records for address-local
// traces.
func TestMTRCompactness(t *testing.T) {
	accs := make([]Access, 10_000)
	addr := memory.Addr(0)
	for i := range accs {
		addr += memory.Addr(16 * (i % 5))
		accs[i] = Access{Node: memory.NodeID(i % 16), Kind: Kind(i % 2), Addr: addr}
	}
	mtr3 := encodeMTR(t, Header{BlockSize: 16, PageSize: 4096, Nodes: 16}, accs)
	mtr1 := len(magic) + 8 + recordSize*len(accs) // fixed-width records
	if len(mtr3)*2 > mtr1 {
		t.Fatalf("MTR3 %d bytes not clearly below MTR1 %d bytes", len(mtr3), mtr1)
	}
}
