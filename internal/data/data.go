// Package data provides deterministic synthetic datasets for the
// functional plane. The paper's statistical experiments (Fig. 11) need a
// CIFAR-10-like classification task; since the reproduction has no
// access to the original archives, we generate a separable-but-noisy
// image distribution with class-specific spatial prototypes, which
// exercises the identical training code path (conv features, FC heads,
// softmax loss) with a learnable signal.
package data

import (
	"fmt"
	"math/rand"

	"repro/internal/tensor"
)

// Dataset is a fixed synthetic sample set.
type Dataset struct {
	X       *tensor.Matrix // rows = samples, cols = C·H·W
	Labels  []int
	Classes int
	C, H, W int
}

// Synthetic generates n samples of c×h×w images across `classes`
// classes. Each class has a smooth random prototype; samples are the
// prototype plus Gaussian pixel noise. Identical (seed, shape) inputs
// generate identical datasets on every node — this is how workers shard
// data without a shared filesystem.
func Synthetic(seed int64, n, classes, c, h, w int, noise float64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	dim := c * h * w
	protos := tensor.NewMatrix(classes, dim)
	// Smooth prototypes: low-frequency sums of a few random planes.
	for cl := 0; cl < classes; cl++ {
		row := protos.Row(cl)
		fx, fy := 1+rng.Intn(3), 1+rng.Intn(3)
		phase := rng.Float64() * 6.28
		amp := 0.8 + rng.Float64()*0.4
		for ch := 0; ch < c; ch++ {
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					v := amp * wave(float64(x)/float64(w)*float64(fx)+float64(y)/float64(h)*float64(fy)+phase)
					row[(ch*h+y)*w+x] = float32(v)
				}
			}
		}
	}
	ds := &Dataset{
		X:       tensor.NewMatrix(n, dim),
		Labels:  make([]int, n),
		Classes: classes,
		C:       c, H: h, W: w,
	}
	for i := 0; i < n; i++ {
		cl := i % classes
		ds.Labels[i] = cl
		row := ds.X.Row(i)
		proto := protos.Row(cl)
		for j := range row {
			row[j] = proto[j] + float32(rng.NormFloat64()*noise)
		}
	}
	return ds
}

// wave is a cheap smooth periodic function.
func wave(t float64) float64 {
	// Triangle wave in [-1, 1]; smooth enough for prototypes.
	t -= float64(int(t))
	if t < 0 {
		t++
	}
	if t < 0.5 {
		return 4*t - 1
	}
	return 3 - 4*t
}

// Batch copies samples [start, start+size) (wrapping) into a fresh
// matrix and label slice.
func (d *Dataset) Batch(start, size int) (*tensor.Matrix, []int) {
	x := new(tensor.Matrix)
	labels := make([]int, size)
	d.BatchInto(x, labels, start, size)
	return x, labels
}

// BatchInto is Batch into caller-owned buffers: x is resized to
// size×C·H·W and labels, which must hold size entries, is overwritten.
func (d *Dataset) BatchInto(x *tensor.Matrix, labels []int, start, size int) {
	if len(labels) != size {
		panic(fmt.Sprintf("data: BatchInto got %d label slots for a batch of %d", len(labels), size))
	}
	x.Resize(size, d.X.Cols)
	n := d.X.Rows
	for i := 0; i < size; i++ {
		src := (start + i) % n
		copy(x.Row(i), d.X.Row(src))
		labels[i] = d.Labels[src]
	}
}

// Shard returns worker w's 1/p slice of the dataset (strided, so class
// balance is preserved).
func (d *Dataset) Shard(w, p int) *Dataset {
	n := d.X.Rows
	var idx []int
	for i := w; i < n; i += p {
		idx = append(idx, i)
	}
	out := &Dataset{
		X:       tensor.NewMatrix(len(idx), d.X.Cols),
		Labels:  make([]int, len(idx)),
		Classes: d.Classes,
		C:       d.C, H: d.H, W: d.W,
	}
	for i, src := range idx {
		copy(out.X.Row(i), d.X.Row(src))
		out.Labels[i] = d.Labels[src]
	}
	return out
}

// Split partitions the dataset into the first n samples and the rest
// (train/test split drawn from the same distribution).
func (d *Dataset) Split(n int) (*Dataset, *Dataset) {
	if n <= 0 || n >= d.N() {
		panic("data: bad split point")
	}
	mk := func(lo, hi int) *Dataset {
		out := &Dataset{
			X:       tensor.NewMatrix(hi-lo, d.X.Cols),
			Labels:  make([]int, hi-lo),
			Classes: d.Classes,
			C:       d.C, H: d.H, W: d.W,
		}
		for i := lo; i < hi; i++ {
			copy(out.X.Row(i-lo), d.X.Row(i))
			out.Labels[i-lo] = d.Labels[i]
		}
		return out
	}
	return mk(0, n), mk(n, d.N())
}

// N returns the sample count.
func (d *Dataset) N() int { return d.X.Rows }
