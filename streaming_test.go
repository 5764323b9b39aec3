package cachebox

import (
	"reflect"
	"testing"
)

func streamTestPipeline(t *testing.T) Pipeline {
	t.Helper()
	p := NewPipeline()
	p.Heatmap.Height, p.Heatmap.Width = 8, 8
	p.Heatmap.WindowInstr = 120
	p.MaxPairsPerBench = 5
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p.Store = st
	return p
}

func streamTestBenches() []Benchmark {
	var bs []Benchmark
	bs = append(bs, SpecLike(2, 2, 1500).Benchmarks[:3]...)
	bs = append(bs, ZipfLike(1500, 0.25).Benchmarks[:2]...)
	return bs
}

// DatasetSource must serve the exact sample sequence Dataset returns
// (exhaustive build), and a sampled build must serve a strict,
// positively weighted subset.
func TestDatasetSourceMatchesDataset(t *testing.T) {
	benches := streamTestBenches()
	cfgs := []CacheConfig{{Sets: 16, Ways: 2, BlockSize: 64}}
	p := streamTestPipeline(t)

	want, err := p.Dataset(benches, cfgs, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	src, man, err := p.DatasetSource("equiv", benches, cfgs, 0.2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if man.TotalWindows != len(want) || src.Len() != len(want) {
		t.Fatalf("source serves %d samples, Dataset has %d", src.Len(), len(want))
	}
	for i := range want {
		got, err := src.At(i)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("sample %d differs from Dataset", i)
		}
	}

	smp := DefaultSamplingConfig()
	smp.K, smp.Seed = 3, 11
	sampled, sman, err := p.DatasetSource("thin", benches, cfgs, 0, &smp)
	if err != nil {
		t.Fatal(err)
	}
	if sman.Sampling == nil || sampled.Len() >= src.Len() {
		t.Fatalf("sampled dataset not thinned: %d vs %d", sampled.Len(), src.Len())
	}
	for i := 0; i < sampled.Len(); i++ {
		s, err := sampled.At(i)
		if err != nil {
			t.Fatal(err)
		}
		if s.Weight <= 0 {
			t.Fatalf("sampled sample %d has weight %v", i, s.Weight)
		}
	}
}

// DatasetSource without a store must refuse rather than silently
// materialise.
func TestDatasetSourceRequiresStore(t *testing.T) {
	p := NewPipeline()
	if _, _, err := p.DatasetSource("x", streamTestBenches()[:1], []CacheConfig{{Sets: 16, Ways: 2}}, 0, nil); err == nil {
		t.Fatal("DatasetSource accepted a nil store")
	}
}
