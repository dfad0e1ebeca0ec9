package data

import (
	"testing"

	"repro/internal/tensor"
)

func TestSyntheticDeterministic(t *testing.T) {
	a := Synthetic(42, 100, 10, 3, 8, 8, 0.3)
	b := Synthetic(42, 100, 10, 3, 8, 8, 0.3)
	if !a.X.ApproxEqual(b.X, 0) {
		t.Fatal("same seed must generate identical data")
	}
	c := Synthetic(43, 100, 10, 3, 8, 8, 0.3)
	if a.X.ApproxEqual(c.X, 0) {
		t.Fatal("different seeds should differ")
	}
}

func TestSyntheticShape(t *testing.T) {
	d := Synthetic(1, 50, 10, 3, 8, 8, 0.3)
	if d.N() != 50 || d.X.Cols != 3*8*8 || len(d.Labels) != 50 {
		t.Fatalf("bad shape: n=%d cols=%d", d.N(), d.X.Cols)
	}
	for _, l := range d.Labels {
		if l < 0 || l >= 10 {
			t.Fatalf("label %d out of range", l)
		}
	}
}

func TestBatchWraps(t *testing.T) {
	d := Synthetic(1, 10, 2, 1, 4, 4, 0.1)
	x, labels := d.Batch(8, 4) // wraps to samples 8,9,0,1
	if x.Rows != 4 || len(labels) != 4 {
		t.Fatal("bad batch shape")
	}
	for j := 0; j < x.Cols; j++ {
		if x.At(2, j) != d.X.At(0, j) {
			t.Fatal("wrap-around sample mismatch")
		}
	}
}

// BatchInto must fill reused buffers with exactly what Batch returns,
// growing and shrinking with the batch size, without allocating once
// the buffers have seen the largest batch.
func TestBatchIntoMatchesBatch(t *testing.T) {
	d := Synthetic(1, 10, 2, 1, 4, 4, 0.1)
	x := new(tensor.Matrix)
	labels := make([]int, 6)
	for _, c := range []struct{ start, size int }{{0, 6}, {8, 4}, {3, 6}} {
		wantX, wantL := d.Batch(c.start, c.size)
		d.BatchInto(x, labels[:c.size], c.start, c.size)
		if x.Rows != wantX.Rows || x.Cols != wantX.Cols {
			t.Fatalf("batch(%d,%d): shape %dx%d, want %dx%d", c.start, c.size, x.Rows, x.Cols, wantX.Rows, wantX.Cols)
		}
		for i, v := range wantX.Data {
			if x.Data[i] != v {
				t.Fatalf("batch(%d,%d): elem %d = %g, want %g", c.start, c.size, i, x.Data[i], v)
			}
		}
		for i, l := range wantL {
			if labels[i] != l {
				t.Fatalf("batch(%d,%d): label %d = %d, want %d", c.start, c.size, i, labels[i], l)
			}
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { d.BatchInto(x, labels, 2, 6) }); allocs != 0 {
		t.Fatalf("BatchInto into warm buffers allocates %.1f times per call, want 0", allocs)
	}
}

func TestShardPartition(t *testing.T) {
	d := Synthetic(1, 100, 10, 1, 4, 4, 0.1)
	const p = 4
	total := 0
	for w := 0; w < p; w++ {
		s := d.Shard(w, p)
		total += s.N()
		// Strided shard preserves class balance exactly for n%p==0 when
		// classes divide evenly; here just check labels are valid.
		for i := 0; i < s.N(); i++ {
			if s.Labels[i] != d.Labels[w+i*p] {
				t.Fatal("shard misaligned")
			}
		}
	}
	if total != d.N() {
		t.Fatalf("shards cover %d of %d samples", total, d.N())
	}
}

func TestSplit(t *testing.T) {
	d := Synthetic(7, 100, 4, 1, 4, 4, 0.2)
	train, test := d.Split(80)
	if train.N() != 80 || test.N() != 20 {
		t.Fatalf("split sizes %d/%d", train.N(), test.N())
	}
	for j := 0; j < d.X.Cols; j++ {
		if test.X.At(0, j) != d.X.At(80, j) {
			t.Fatal("test set misaligned")
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bad split")
		}
	}()
	d.Split(0)
}
