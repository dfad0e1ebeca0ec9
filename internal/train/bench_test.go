package train

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/data"
	"repro/internal/nn/autodiff"
	"repro/internal/transport"
)

// BenchmarkTrainStepAlloc measures what a whole training step allocates
// in steady state: two workers over an in-process mesh, pooled sends,
// one op = one cluster iteration (both workers' batch, forward, streamed
// backward with launches, and the comm runtime synchronizing it).
// allocs/op is the gated number: the backward pass contributes none, so
// what is left is the wire path's O(1) per parameter. The timer and the
// allocation counters restart at the end of rank 0's last warm-up
// iteration, once every workspace, ring slot and pool has been sized.
func BenchmarkTrainStepAlloc(b *testing.B) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"hybrid_mlp", Config{
			Mode:     Hybrid,
			BuildNet: mlpBuilder(256, []int{192, 192}, 10),
			TrainSet: data.Synthetic(1, 512, 10, 1, 16, 16, 0.5),
		}},
		{"ps_cifarquick", Config{
			Mode: PSOnly,
			BuildNet: func(rng *rand.Rand) *autodiff.Network {
				net, _, _, _ := autodiff.CIFARQuickNet(4, 10, rng)
				return net
			},
			TrainSet: data.Synthetic(1, 512, 10, 3, 8, 8, 0.5),
		}},
	}
	const workers, warmup = 2, 5
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			cfg := c.cfg
			cfg.Workers, cfg.Iters, cfg.Batch, cfg.LR, cfg.Seed = workers, warmup+b.N, 8, 0.01, 1
			cfg.Overlap, cfg.ChunkElems = true, 4096
			meshes := transport.NewChanCluster(workers)
			errs := make([]error, workers)
			b.ReportAllocs()
			var wg sync.WaitGroup
			for rank := range meshes {
				rank, cfg := rank, cfg
				if rank == 0 {
					cfg.Progress = func(p Point) {
						if p.Iter == warmup-1 {
							b.ResetTimer()
						}
					}
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					_, errs[rank] = RunWorker(cfg, meshes[rank])
				}()
			}
			wg.Wait()
			b.StopTimer()
			meshes[0].Close()
			for rank, err := range errs {
				if err != nil {
					b.Fatalf("rank %d: %v", rank, err)
				}
			}
		})
	}
}
