package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"migratory/internal/memory"
)

func TestKindString(t *testing.T) {
	if Read.String() != "read" || Write.String() != "write" {
		t.Fatalf("Kind strings: %q %q", Read, Write)
	}
	if got := Kind(9).String(); got != "Kind(9)" {
		t.Fatalf("unknown kind string: %q", got)
	}
}

func TestAccessString(t *testing.T) {
	a := Access{Node: 3, Kind: Write, Addr: 0x1040}
	if got := a.String(); got != "P3 write 0x1040" {
		t.Fatalf("Access.String = %q", got)
	}
}

func TestSliceSource(t *testing.T) {
	accs := []Access{
		{Node: 0, Kind: Read, Addr: 0},
		{Node: 1, Kind: Write, Addr: 16},
	}
	s := NewSliceSource(accs)
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	got, err := ReadAll(s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, accs) {
		t.Fatalf("ReadAll = %v; want %v", got, accs)
	}
	// Exhausted source keeps returning EOF.
	if _, err := s.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("Next after EOF: %v", err)
	}
	if err := s.Reset(); err != nil {
		t.Fatal(err)
	}
	a, err := s.Next()
	if err != nil || a != accs[0] {
		t.Fatalf("after Reset: %v %v", a, err)
	}
	// Rest returns the unconsumed tail and drains the source.
	if rest := s.Rest(); !reflect.DeepEqual(rest, accs[1:]) {
		t.Fatalf("Rest = %v; want %v", rest, accs[1:])
	}
	if _, err := s.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("Next after Rest: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestEmptySlice(t *testing.T) {
	s := NewSliceSource(nil)
	if _, err := s.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("empty Next: %v", err)
	}
	if err := s.Reset(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(s)
	if err != nil || len(got) != 0 {
		t.Fatalf("ReadAll empty = %v, %v", got, err)
	}
}

// encodeMTR1 builds a legacy fixed-record (MTR1) image. No writer emits
// the format any more, but Decoder still reads it for `tracegen -in`
// conversion, so the tests craft their own inputs.
func encodeMTR1(accs []Access) []byte {
	out := append([]byte{}, magic[:]...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(accs)))
	for _, a := range accs {
		out = append(out, byte(a.Node), byte(a.Kind))
		out = binary.LittleEndian.AppendUint64(out, uint64(a.Addr))
	}
	return out
}

// decodeMTR1 reads an MTR1 image back through the sequential reader.
func decodeMTR1(data []byte) ([]Access, error) {
	src, err := NewFileSource(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	return ReadAll(src)
}

func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	accs := make([]Access, 1000)
	for i := range accs {
		accs[i] = Access{
			Node: memory.NodeID(rng.Intn(16)),
			Kind: Kind(rng.Intn(2)),
			Addr: memory.Addr(rng.Uint64() >> 20),
		}
	}
	got, err := decodeMTR1(encodeMTR1(accs))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, accs) {
		t.Fatal("round trip mismatch")
	}
}

func TestBinaryRoundTripEmpty(t *testing.T) {
	got, err := decodeMTR1(encodeMTR1(nil))
	if err != nil || len(got) != 0 {
		t.Fatalf("empty round trip = %v, %v", got, err)
	}
}

func TestReadFromBadMagic(t *testing.T) {
	_, err := decodeMTR1([]byte("XXXX\x00\x00\x00\x00\x00\x00\x00\x00"))
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic error: %v", err)
	}
}

func TestReadFromTruncated(t *testing.T) {
	full := encodeMTR1([]Access{{Node: 1, Kind: Write, Addr: 42}})
	for cut := 1; cut < len(full); cut++ {
		if _, err := decodeMTR1(full[:len(full)-cut]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("truncating %d bytes: %v, want ErrTruncated", cut, err)
		}
	}
}

func TestReadFromImplausibleCount(t *testing.T) {
	raw := append([]byte("MTR1"), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF)
	if _, err := decodeMTR1(raw); err == nil {
		t.Fatal("implausible count accepted")
	}
}

func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(nodes []uint8, kinds []bool, addrs []uint32) bool {
		n := len(nodes)
		if len(kinds) < n {
			n = len(kinds)
		}
		if len(addrs) < n {
			n = len(addrs)
		}
		accs := make([]Access, n)
		for i := 0; i < n; i++ {
			k := Read
			if kinds[i] {
				k = Write
			}
			accs[i] = Access{Node: memory.NodeID(nodes[i]), Kind: k, Addr: memory.Addr(addrs[i])}
		}
		got, err := decodeMTR1(encodeMTR1(accs))
		if err != nil {
			return false
		}
		if len(got) != len(accs) {
			return false
		}
		for i := range accs {
			if got[i] != accs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
