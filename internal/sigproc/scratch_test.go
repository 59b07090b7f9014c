package sigproc

import (
	"testing"
)

// TestFilterIntoMatchesFilter pins the scratch path to the allocating
// path bit-for-bit, including the in-place dst==xs case.
func TestFilterIntoMatchesFilter(t *testing.T) {
	bf, err := NewButterworth(6, 0.9, 9)
	if err != nil {
		t.Fatal(err)
	}
	xs := benchInput(257)
	want := bf.Filter(xs)

	got := bf.FilterInto(make([]float64, 0, len(xs)), xs)
	if len(got) != len(want) {
		t.Fatalf("len %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FilterInto[%d] = %v, want %v", i, got[i], want[i])
		}
	}

	inPlace := append([]float64(nil), xs...)
	out := bf.FilterInto(inPlace, inPlace)
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("in-place FilterInto[%d] = %v, want %v", i, out[i], want[i])
		}
	}
}

// TestFilterIntoGrows checks an undersized dst is reallocated rather
// than truncating the output.
func TestFilterIntoGrows(t *testing.T) {
	bf, err := NewButterworth(4, 1.0, 10)
	if err != nil {
		t.Fatal(err)
	}
	xs := benchInput(64)
	small := make([]float64, 3)
	got := bf.FilterInto(small, xs)
	want := bf.Filter(xs)
	if len(got) != len(want) {
		t.Fatalf("len %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grown FilterInto[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestFilterIntoZeroAlloc asserts the steady-state scratch path does not
// allocate once the buffer has grown to the series length.
func TestFilterIntoZeroAlloc(t *testing.T) {
	bf, err := NewButterworth(6, 0.9, 9)
	if err != nil {
		t.Fatal(err)
	}
	xs := benchInput(300)
	dst := make([]float64, len(xs))
	if n := testing.AllocsPerRun(50, func() {
		dst = bf.FilterInto(dst, xs)
	}); n != 0 {
		t.Fatalf("FilterInto allocates %v per run, want 0", n)
	}
}

func BenchmarkFilterInto(b *testing.B) {
	bf, _ := NewButterworth(6, 0.9, 9)
	xs := benchInput(100)
	dst := make([]float64, len(xs))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst = bf.FilterInto(dst, xs)
	}
}
