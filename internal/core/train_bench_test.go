package core

import "testing"

// benchTrainEpoch is a quick look at one full epoch over a fixed toy
// dataset, at one shard and at four shards on several worker counts,
// reported as samples/s (BENCH_PR10.json is the frozen record of it).
// On a single-core machine four shards pay their fan-out overhead
// without any parallel win. Claims about training throughput come from
// bench/'s train-epoch workload, not from here.
func benchTrainEpoch(b *testing.B, shards, workers int) {
	samples := shardedSamples(16)
	cfg := TrainConfig{Epochs: 1, BatchSize: 7, Seed: 9,
		Parallel: Parallelism{Shards: shards, Workers: workers}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m, err := NewModel(tinyConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := m.Train(samples, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(samples)*b.N)/b.Elapsed().Seconds(), "samples/s")
}

func BenchmarkTrainEpochSerial(b *testing.B)     { benchTrainEpoch(b, 0, 1) }
func BenchmarkTrainEpochSharded4J1(b *testing.B) { benchTrainEpoch(b, 4, 1) }
func BenchmarkTrainEpochSharded4J4(b *testing.B) { benchTrainEpoch(b, 4, 4) }
