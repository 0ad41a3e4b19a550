package main

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"scipp/internal/codec"
	"scipp/internal/codec/deltafp"
	"scipp/internal/codec/lut"
	"scipp/internal/codec/seriesfmt"
	"scipp/internal/core"
	"scipp/internal/dataserve"
	"scipp/internal/gpusim"
	"scipp/internal/pipeline"
	"scipp/internal/platform"
	"scipp/internal/synthetic"
	"scipp/internal/tensor"
)

// augmentFn is the pipeline's per-sample augment transform.
type augmentFn = func(*tensor.Tensor) (*tensor.Tensor, error)

// workload is one named input set plus the loader or service that consumes
// it. BENCHMARK.json carries the same names and reasons.
type workload struct {
	name, why string
	// setups is how many times a run sets the program up; setup_s is
	// their median.
	setups int
	// build generates, encodes and stores the inputs for seed; a workload
	// that stores one file per sample writes them under dir.
	build func(seed uint64, dir string) (*inputs, error)
	// start constructs the program over the opened dataset, format and
	// augment, which the traced run hands in wrapped.
	start func(in *inputs, ds pipeline.Dataset, f codec.Format, aug augmentFn) (system, error)
	// path sums the contention-free per-sample costs (solo passes) of the
	// layers a timed sample passes through; hit is the cache hit ratio.
	path func(s soloCosts, hit float64) float64
}

var workloads = []workload{
	{
		name:   "deepcam-paper",
		why:    "paper-shape DeepCAM (16x768x1152) through deltafp on the CPU plugin, no cache: decode does nearly all the work",
		setups: 3,
		build:  buildDeepCAM,
		start: func(in *inputs, ds pipeline.Dataset, f codec.Format, _ augmentFn) (system, error) {
			// One decode worker spreads each sample's chunks over the cores,
			// so samples arrive one at a time rather than in pairs.
			return newLoader(ds, pipeline.Config{
				Format: f, Batch: 1, Shuffle: true, Seed: in.seed,
				Stages: pipeline.StageConfig{DecodeWorkers: 1},
			}, false)
		},
		path: func(s soloCosts, _ float64) float64 { return s.readUS + s.decodeUS },
	},
	{
		name:   "cosmoflow-paper-cached",
		why:    "paper-shape CosmoFlow (4x128^3) through lut on the simulated-GPU plugin, every timed epoch served from a host cache",
		setups: 5,
		build: func(seed uint64, dir string) (*inputs, error) {
			return buildCosmo(seed, 128, 4, 8, dir)
		},
		start: func(in *inputs, ds pipeline.Dataset, f codec.Format, _ augmentFn) (system, error) {
			return newLoader(ds, pipeline.Config{
				Format: f, Plugin: pipeline.GPUPlugin, Device: gpusim.New(platform.Summit().GPU),
				// Batches of two keep a window near 500 batches, well
				// clear of the 1000 at which the tail moves from p90 to
				// p99. The device decodes one sample at a time, its
				// chunks spread over the device's workers.
				Batch: 2, Shuffle: true, Seed: in.seed,
				Stages: pipeline.StageConfig{DecodeWorkers: 1},
				Cache:  pipeline.CacheConfig{HostMemBytes: in.footprint() + 1<<20},
			}, false)
		},
		path: func(s soloCosts, _ float64) float64 { return s.cacheGetUS + s.decodeUS },
	},
	{
		name:   "weather-ragged",
		why:    "ragged weather stations (0..256 obs) in memory, cached, with an augment and padded batches of 32: decode is tiny, so handoff and batching dominate",
		setups: 5,
		build:  buildWeather,
		start: func(in *inputs, ds pipeline.Dataset, f codec.Format, aug augmentFn) (system, error) {
			return newLoader(ds, pipeline.Config{
				// Eight batches in flight absorb the bursts of a pipeline
				// whose samples each take microseconds.
				Format: f, Batch: 32, Prefetch: 8 * 32, Shuffle: true, Seed: in.seed, Augment: aug,
				Cache: pipeline.CacheConfig{HostMemBytes: in.footprint() + 1<<20},
			}, true)
		},
		path: func(s soloCosts, _ float64) float64 { return s.cacheGetUS + s.decodeUS + s.augmentUS },
	},
	{
		name:   "dataserve-shared",
		why:    "two tenants share one data service over 32^3 CosmoFlow whose cache holds half the decoded set, so eviction, re-decode and single-flight recur",
		setups: 5,
		build: func(seed uint64, _ string) (*inputs, error) {
			in, err := buildCosmo(seed, 32, 64, 64, "")
			if in != nil {
				in.cacheDecoded = true // the service caches decoded tensors
			}
			return in, err
		},
		start: startService,
		path: func(s soloCosts, hit float64) float64 {
			return hit*s.cacheGetUS + (1-hit)*(s.readUS+s.decodeUS+s.cachePutUS)
		},
	},
}

func lookupWorkload(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// inputs is one workload's generated dataset. Entry i holds a copy of
// generated sample i % distinct: paper-shape samples cost seconds each to
// generate, so the larger workloads reuse a few of them across entries.
type inputs struct {
	seed     uint64
	format   codec.Format
	mem      *pipeline.MemDataset // every entry's encoded blob and label
	distinct int
	dir      string    // per-sample-file store; "" keeps the dataset in memory
	augment  augmentFn // nil when the workload has no augment stage
	// cacheDecoded marks a program whose cache holds decoded tensors rather
	// than encoded blobs; the solo cache pass stores the same.
	cacheDecoded bool

	generateS, encodeS, storeS float64
	rawBytes                   int64 // bytes the encoder read, distinct samples
}

// open opens the stored dataset the way a training job does: the
// per-sample-file directory, or the in-memory dataset itself.
func (in *inputs) open() (pipeline.Dataset, error) {
	if in.dir == "" {
		return in.mem, nil
	}
	return core.OpenClimateDir(in.dir)
}

// footprint is the cache's byte accounting of every entry: blob plus label.
func (in *inputs) footprint() int64 {
	var n int64
	for i, b := range in.mem.Blobs {
		n += int64(len(b) + in.mem.Labels[i].Bytes())
	}
	return n
}

// heldBytes is what the benchmark itself keeps of the inputs: the distinct
// blobs and labels.
func (in *inputs) heldBytes() int64 {
	var n int64
	for i := 0; i < in.distinct; i++ {
		n += int64(len(in.mem.Blobs[i]) + in.mem.Labels[i].Bytes())
	}
	return n
}

// store lays entries copies of the distinct blobs out in the stored form the
// program opens and, for a file-backed workload, writes one file per entry.
func (in *inputs) store(blobs [][]byte, labels []*tensor.Tensor, entries int) error {
	t0 := time.Now()
	in.mem = &pipeline.MemDataset{Blobs: make([][]byte, entries), Labels: make([]*tensor.Tensor, entries)}
	for i := 0; i < entries; i++ {
		in.mem.Blobs[i], in.mem.Labels[i] = blobs[i%len(blobs)], labels[i%len(labels)]
	}
	if in.dir != "" {
		if err := core.WriteClimateDir(in.dir, in.mem); err != nil {
			return fmt.Errorf("storing inputs: %w", err)
		}
	}
	in.storeS = time.Since(t0).Seconds()
	return nil
}

// buildDeepCAM generates two paper-shape climate samples and stores them as
// twelve per-sample files. Twelve samples per epoch keep the slow first
// batch of each epoch under a tenth of all batches, below the tail
// percentile.
func buildDeepCAM(seed uint64, dir string) (*inputs, error) {
	const distinct, entries = 2, 12
	cfg := synthetic.DefaultClimateConfig()
	cfg.Seed = seed
	in := &inputs{seed: seed, format: core.FormatFor(core.DeepCAM, core.Plugin), distinct: distinct, dir: dir}

	// Generation runs about 5 s per sample on one core, so the distinct
	// samples are generated side by side; encoding stays on one goroutine
	// so solo.encode_MBps is a contention-free rate.
	t0 := time.Now()
	samples := make([]*synthetic.ClimateSample, distinct)
	errs := make([]error, distinct)
	var wg sync.WaitGroup
	for i := range samples {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			samples[i], errs[i] = synthetic.GenerateClimate(cfg, i)
		}(i)
	}
	wg.Wait()
	in.generateS = time.Since(t0).Seconds()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	blobs := make([][]byte, distinct)
	labels := make([]*tensor.Tensor, distinct)
	t0 = time.Now()
	for i, s := range samples {
		b, err := deltafp.Encode(s.Data, deltafp.Options{})
		if err != nil {
			return nil, fmt.Errorf("encoding sample %d: %w", i, err)
		}
		blobs[i], labels[i] = b, s.Labels
		in.rawBytes += int64(s.Data.Bytes())
	}
	in.encodeS = time.Since(t0).Seconds()
	return in, in.store(blobs, labels, entries)
}

// buildCosmo generates distinct dim^3 universe sub-volumes, lut-encoded, as
// entries samples: per-sample files under dir, or in memory when dir is "".
func buildCosmo(seed uint64, dim, distinct, entries int, dir string) (*inputs, error) {
	cfg := synthetic.DefaultCosmoConfig()
	cfg.Dim, cfg.Seed = dim, seed
	in := &inputs{seed: seed, format: core.FormatFor(core.CosmoFlow, core.Plugin), distinct: distinct, dir: dir}
	blobs := make([][]byte, distinct)
	labels := make([]*tensor.Tensor, distinct)
	for i := range blobs {
		t0 := time.Now()
		s, err := synthetic.GenerateCosmo(cfg, i)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		b, err := lut.Encode(s.Channels, s.Dim)
		if err != nil {
			return nil, fmt.Errorf("encoding sample %d: %w", i, err)
		}
		in.generateS += t1.Sub(t0).Seconds()
		in.encodeS += time.Since(t1).Seconds()
		in.rawBytes += int64(s.StoredBytes())
		blobs[i], labels[i] = b, tensor.FromF32(s.Params[:], 4)
	}
	return in, in.store(blobs, labels, entries)
}

// buildWeather generates 4096 irregular weather-station records.
func buildWeather(seed uint64, _ string) (*inputs, error) {
	const stations = 4096
	cfg := synthetic.DefaultWeatherConfig()
	cfg.Seed = seed
	in := &inputs{seed: seed, format: seriesfmt.Bounded(cfg.Channels, cfg.MaxLen), distinct: stations, augment: normalize}
	blobs := make([][]byte, stations)
	labels := make([]*tensor.Tensor, stations)
	for i := range blobs {
		t0 := time.Now()
		s, err := synthetic.GenerateWeather(cfg, i)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		blobs[i], labels[i] = synthetic.WeatherToRecord(s), s.Label()
		in.generateS += t1.Sub(t0).Seconds()
		in.encodeS += time.Since(t1).Seconds()
		in.rawBytes += int64(s.Data.Bytes())
	}
	return in, in.store(blobs, labels, stations)
}

// normalize is the weather workload's augment: it scales each channel of a
// [C, L] station series to zero mean and unit variance, in place.
func normalize(t *tensor.Tensor) (*tensor.Tensor, error) {
	if t.DT != tensor.F32 || len(t.Shape) != 2 {
		return nil, fmt.Errorf("normalize: want an F32 [C, L] series, got %v %v", t.DT, t.Shape)
	}
	c, l := t.Shape[0], t.Shape[1]
	if l == 0 {
		return t, nil
	}
	for ch := 0; ch < c; ch++ {
		row := t.F32s[ch*l : (ch+1)*l]
		var sum, sq float64
		for _, v := range row {
			sum += float64(v)
			sq += float64(v) * float64(v)
		}
		mean := sum / float64(l)
		sd := math.Sqrt(math.Max(sq/float64(l)-mean*mean, 0))
		if sd < 1e-6 {
			sd = 1
		}
		for i, v := range row {
			row[i] = float32((float64(v) - mean) / sd)
		}
	}
	return t, nil
}

// system is one constructed loader or service. It runs epochs for each of
// its consumer lanes and reports the counters its layers export.
type system interface {
	lanes() int
	// epoch runs epoch e of lane k, handing every batch to c.
	epoch(k, e int, c *consumer) error
	counters() layerCounters
	close()
}

// layerCounters are the counters the program's layers export.
type layerCounters struct {
	cache          pipeline.CacheStats
	pool           pipeline.PoolStats
	retries, skips int64
	service        *dataserve.ServiceStats // nil off the data service
	lagP99         int64                   // worst tenant's dispatch-lag p99
}

// loaderSys is a pipeline.Loader with one consumer.
type loaderSys struct {
	l              *pipeline.Loader
	padded         bool
	retries, skips int64
}

func newLoader(ds pipeline.Dataset, cfg pipeline.Config, padded bool) (system, error) {
	l, err := pipeline.New(ds, cfg)
	if err != nil {
		return nil, err
	}
	return &loaderSys{l: l, padded: padded}, nil
}

func (s *loaderSys) lanes() int { return 1 }

func (s *loaderSys) epoch(_, e int, c *consumer) error {
	it := s.l.Epoch(e)
	defer it.Close()
	var err error
	if s.padded {
		err = c.drainPadded(it.NextPadded, s.l.Schedule(e))
	} else {
		err = c.drain(it.Next, s.l.Schedule(e))
	}
	st := it.Stats()
	s.retries += int64(st.Retried)
	s.skips += int64(st.Skipped)
	return err
}

func (s *loaderSys) counters() layerCounters {
	lc := layerCounters{pool: s.l.Pool().Stats(), retries: s.retries, skips: s.skips}
	if c := s.l.Cache(); c != nil {
		lc.cache = c.Stats()
	}
	return lc
}

func (s *loaderSys) close() {}

// serviceSys is a dataserve.Service with one consumer per tenant.
type serviceSys struct {
	svc     *dataserve.Service
	tenants []*dataserve.Tenant
	seeds   []uint64
	n       int
}

const serviceDataset = "cosmo"

// startService attaches two tenants with different shuffle seeds to one
// service whose shared cache holds about half the decoded working set.
func startService(in *inputs, ds pipeline.Dataset, f codec.Format, _ augmentFn) (system, error) {
	n := ds.Len()
	cd, err := in.format.Open(in.mem.Blobs[0])
	if err != nil {
		return nil, err
	}
	decoded := int64(cd.Workload().BytesOut + in.mem.Labels[0].Bytes())
	codec.Recycle(cd)
	svc := dataserve.New(dataserve.Config{})
	s := &serviceSys{svc: svc, n: n, seeds: []uint64{in.seed + 1, in.seed + 2}}
	err = svc.Register(dataserve.DatasetConfig{
		Name: serviceDataset, Data: ds, Format: f,
		Cache: pipeline.CacheConfig{HostMemBytes: decoded * int64(n) / 2},
	})
	for k := 0; err == nil && k < len(s.seeds); k++ {
		var t *dataserve.Tenant
		t, err = svc.Attach(dataserve.TenantConfig{
			Name: fmt.Sprintf("tenant-%d", k), Dataset: serviceDataset,
			// Two samples per batch give each lane thousands of
			// batches per window for its tail estimate.
			Batch: 2, Shuffle: true, Seed: s.seeds[k],
		})
		s.tenants = append(s.tenants, t)
	}
	if err != nil {
		svc.Close()
		return nil, err
	}
	return s, nil
}

func (s *serviceSys) lanes() int { return len(s.tenants) }

func (s *serviceSys) epoch(k, e int, c *consumer) error {
	it := s.tenants[k].Epoch(e)
	defer it.Close()
	// Tenants derive their schedules exactly as the pipeline's shuffled
	// source does.
	return c.drain(it.Next, (&pipeline.ShuffledSource{N: s.n, Seed: s.seeds[k]}).Order(e))
}

func (s *serviceSys) counters() layerCounters {
	st := s.svc.Stats()
	lc := layerCounters{
		cache:   s.svc.Cache(serviceDataset).Stats(),
		pool:    s.svc.Pool(serviceDataset).Stats(),
		service: &st,
	}
	for _, t := range s.tenants {
		ts := t.Stats()
		lc.retries += ts.Retries
		lc.skips += ts.Skips
		lc.lagP99 = max(lc.lagP99, ts.QueueWaitP99)
	}
	return lc
}

func (s *serviceSys) close() { s.svc.Close() }
