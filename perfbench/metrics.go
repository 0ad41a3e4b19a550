package main

import (
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"

	"scipp/internal/codec"
	"scipp/internal/dataserve"
	"scipp/internal/pipeline"
)

// metricDef declares one reported metric; BENCHMARK.json lists the same
// names, units and directions.
type metricDef struct{ name, unit, better string }

var endToEndDefs = []metricDef{
	{"samples_per_s", "1/s", "higher"},
	{"batch_wait_p50_ms", "ms", "lower"},
	{"batch_wait_tail_ms", "ms", "lower"},
	{"cpu_ms_per_sample", "ms", "lower"},
	{"mem_live_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

var layerDefs = []metricDef{
	{"inputs.generate_s", "s", "lower"},
	{"inputs.encode_s", "s", "lower"},
	{"inputs.store_s", "s", "lower"},
	{"inputs.encoded_bytes", "bytes", "lower"},
	{"inputs.decoded_bytes", "bytes", "lower"},
	{"setup.open_s", "s", "lower"},
	{"setup.warm_epoch_s", "s", "lower"},
	{"read.calls", "count", "lower"},
	{"read.bytes", "bytes", "lower"},
	{"read.busy_s", "s", "lower"},
	{"read.p50_us", "us", "lower"},
	{"cache.hits", "count", "higher"},
	{"cache.misses", "count", "lower"},
	{"cache.hit_ratio", "ratio", "higher"},
	{"cache.evictions", "count", "lower"},
	{"cache.quarantined", "count", "lower"},
	{"cache.host_bytes", "bytes", "lower"},
	{"decode.opens", "count", "higher"},
	{"decode.open_busy_s", "s", "lower"},
	{"decode.chunks", "count", "higher"},
	{"decode.chunk_busy_s", "s", "lower"},
	{"decode.bytes_out", "bytes", "higher"},
	{"decode.concurrency", "ratio", "higher"},
	{"gpusim.kernel_model_s_per_sample", "s", "lower"},
	{"augment.calls", "count", "higher"},
	{"augment.busy_s", "s", "lower"},
	{"consumer.wait_busy_s", "s", "lower"},
	{"pipeline.retries", "count", "lower"},
	{"pipeline.skips", "count", "lower"},
	{"pool.hit_ratio", "ratio", "higher"},
	{"runtime.allocs_per_sample", "count", "lower"},
	{"runtime.alloc_bytes_per_sample", "bytes", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_s", "s", "lower"},
	{"runtime.live_heap_peak_mb", "MB", "lower"},
	{"dataserve.decodes", "count", "lower"},
	{"dataserve.dedup", "count", "higher"},
	{"dataserve.decodes_per_served", "ratio", "lower"},
	{"dataserve.hits", "count", "higher"},
	{"dataserve.dispatched", "count", "higher"},
	{"dataserve.served_bytes", "bytes", "higher"},
	{"tenant.lag_p99", "dispatches", "lower"},
	{"solo.read_us", "us", "lower"},
	{"solo.decode_us", "us", "lower"},
	{"solo.decode_MBps", "MB/s", "higher"},
	{"solo.encode_MBps", "MB/s", "higher"},
	{"solo.cache_get_us", "us", "lower"},
	{"solo.cache_put_us", "us", "lower"},
	{"solo.augment_us", "us", "lower"},
	{"pipeline.overhead_us_per_sample", "us", "lower"},
	{"trace.overhead_ratio", "ratio", "higher"},
}

// phase is the traced run's set-up plus timed window; the layer counters
// cover all of it.
type phase struct {
	from, to usage
	setup    setup
	win      window
	counters layerCounters
}

func (p phase) samples() int64 {
	n := p.win.samples()
	for _, c := range p.setup.cons {
		n += c.delivered
	}
	return n
}

// layerMetrics computes every per-layer metric of the traced phase p, given
// the untraced window plain and the solo costs. Metrics of a layer the
// workload does not use read 0, with the reason in notes.
func layerMetrics(w *workload, in *inputs, ref *reference, tr *tracer, p phase, plain window, solo soloCosts, notes map[string]string) map[string]metric {
	units := map[string]string{}
	for _, d := range layerDefs {
		units[d.name] = d.unit
	}
	m := make(map[string]metric, len(layerDefs))
	put := func(name string, v float64) { m[name] = metric{finite(v), units[name]} }
	n := float64(p.samples())
	wall := p.to.at.Sub(p.from.at).Seconds()

	var encoded int64
	for _, b := range in.mem.Blobs {
		encoded += int64(len(b))
	}
	put("inputs.generate_s", in.generateS)
	put("inputs.encode_s", in.encodeS)
	put("inputs.store_s", in.storeS)
	put("inputs.encoded_bytes", float64(encoded))
	put("inputs.decoded_bytes", float64(ref.decodedBytes))
	put("setup.open_s", p.setup.openS)
	put("setup.warm_epoch_s", p.setup.warmS)

	reads := sortedCopy(tr.readDur[:min(tr.nreadDur.Load(), int64(len(tr.readDur)))])
	put("read.calls", float64(tr.readCalls.Load()))
	put("read.bytes", float64(tr.readBytes.Load()))
	put("read.busy_s", float64(tr.readBusy.Load())/1e9)
	put("read.p50_us", float64(percentile(reads, 0.5))/1e3)

	cs := p.counters.cache
	hit := finite(float64(cs.Hits) / float64(cs.Hits+cs.Misses))
	put("cache.hits", float64(cs.Hits))
	put("cache.misses", float64(cs.Misses))
	put("cache.hit_ratio", hit)
	put("cache.evictions", float64(cs.Evictions))
	put("cache.quarantined", float64(cs.Quarantined))
	put("cache.host_bytes", float64(cs.HostBytes))
	if cs.Hits+cs.Misses == 0 {
		notes["n/a cache.*"] = "no cache on this workload's path"
	}

	opens := float64(tr.opens.Load())
	put("decode.opens", opens)
	put("decode.open_busy_s", float64(tr.openBusy.Load())/1e9)
	put("decode.chunks", float64(tr.chunks.Load()))
	put("decode.chunk_busy_s", float64(tr.chunkBusy.Load())/1e9)
	put("decode.bytes_out", float64(tr.bytesOut.Load()))
	put("decode.concurrency", float64(tr.chunkBusy.Load())/1e9/wall)
	put("gpusim.kernel_model_s_per_sample", float64(tr.kernelModelPS.Load())/1e12/opens)
	notes["modeled gpusim.kernel_model_s_per_sample"] = "Summit V100 kernel time of each opened decoder's Workload, computed by gpusim, not measured"

	put("augment.calls", float64(tr.augCalls.Load()))
	put("augment.busy_s", float64(tr.augBusy.Load())/1e9)
	if in.augment == nil {
		notes["n/a augment.*, solo.augment_us"] = "no augment stage on this workload"
	}

	var waitNS int64
	for _, c := range append(append([]*consumer(nil), p.setup.cons...), p.win.cons...) {
		waitNS += c.waitNS
	}
	put("consumer.wait_busy_s", float64(waitNS)/1e9)
	put("pipeline.retries", float64(p.counters.retries))
	put("pipeline.skips", float64(p.counters.skips))
	ps := p.counters.pool
	put("pool.hit_ratio", float64(ps.Hits)/float64(ps.Gets))

	put("runtime.allocs_per_sample", float64(p.to.mem.Mallocs-p.from.mem.Mallocs)/n)
	put("runtime.alloc_bytes_per_sample", float64(p.to.mem.TotalAlloc-p.from.mem.TotalAlloc)/n)
	put("runtime.gc_cycles", float64(p.to.mem.NumGC-p.from.mem.NumGC))
	put("runtime.gc_pause_s", float64(p.to.mem.PauseTotalNs-p.from.mem.PauseTotalNs)/1e9)
	put("runtime.live_heap_peak_mb", p.win.programMB(in, p.win.livePeak))

	svc := p.counters.service
	if svc == nil {
		svc = new(dataserve.ServiceStats)
		notes["n/a dataserve.*, tenant.lag_p99"] = "the data service is not on this workload's path"
	}
	put("dataserve.decodes", float64(svc.Decodes))
	put("dataserve.dedup", float64(svc.Dedup))
	put("dataserve.decodes_per_served", float64(svc.Decodes)/n)
	put("dataserve.hits", float64(svc.CacheHits))
	put("dataserve.dispatched", float64(svc.Dispatched))
	put("dataserve.served_bytes", float64(svc.ServedBytes))
	put("tenant.lag_p99", float64(p.counters.lagP99))

	put("solo.read_us", solo.readUS)
	put("solo.decode_us", solo.decodeUS)
	put("solo.decode_MBps", solo.decodeMBps)
	put("solo.encode_MBps", solo.encodeMBps)
	put("solo.cache_get_us", solo.cacheGetUS)
	put("solo.cache_put_us", solo.cachePutUS)
	put("solo.augment_us", solo.augmentUS)

	plainSamples := float64(plain.samples())
	plainCPU := (plain.to.cpu - plain.from.cpu) / plainSamples
	put("pipeline.overhead_us_per_sample", plainCPU*1e6-w.path(solo, hit))
	put("trace.overhead_ratio", (float64(p.win.samples())/p.win.wallS())/(plainSamples/plain.wallS()))
	notes["untraced window"] = fmt.Sprintf("%.3f s, %d samples, %.4g ms CPU per sample", plain.wallS(), int64(plainSamples), plainCPU*1e3)
	return m
}

// soloCosts are the per-sample costs of each layer run alone on one
// goroutine over the workload's inputs, in CPU time of the thread that runs
// them, so that they compare with cpu_ms_per_sample and exclude time the
// machine's hypervisor took away.
type soloCosts struct {
	readUS, decodeUS, decodeMBps, encodeMBps float64
	cacheGetUS, cachePutUS, augmentUS        float64
}

func measureSolo(in *inputs) (soloCosts, error) {
	s := soloCosts{encodeMBps: float64(in.rawBytes) / in.encodeS / 1e6}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	ds, err := in.open()
	if err != nil {
		return s, err
	}
	t0 := threadCPU()
	for i := 0; i < ds.Len(); i++ {
		if _, err := ds.Blob(i); err != nil {
			return s, err
		}
	}
	s.readUS = (threadCPU() - t0).Seconds() * 1e6 / float64(ds.Len())

	// Each distinct sample is decoded twice and the second decode timed: it
	// writes into memory already faulted in, as the pipeline's pooled
	// tensors are. The cache then holds what the program's cache would:
	// encoded blobs, or for the data service the decoded tensor bytes.
	payloads := make([][]byte, in.distinct)
	var decode, augment time.Duration
	var decoded, total int64
	for i := range payloads {
		dst, err := decodeOne(in, i)
		if err != nil {
			return s, err
		}
		t0 := threadCPU()
		cd, err := in.format.Open(in.mem.Blobs[i])
		if err != nil {
			return s, err
		}
		err = codec.DecodeInto(cd, dst)
		decode += threadCPU() - t0
		codec.Recycle(cd)
		if err != nil {
			return s, err
		}
		decoded += int64(dst.Bytes())
		payloads[i] = in.mem.Blobs[i]
		if in.cacheDecoded {
			payloads[i] = tensorBytes(dst)
		}
		if in.augment != nil {
			t0 := threadCPU()
			if _, err := in.augment(dst); err != nil {
				return s, err
			}
			augment += threadCPU() - t0
		}
		total += int64(len(payloads[i]) + in.mem.Labels[i].Bytes())
	}
	s.decodeUS = decode.Seconds() * 1e6 / float64(in.distinct)
	s.decodeMBps = float64(decoded) / decode.Seconds() / 1e6
	s.augmentUS = augment.Seconds() * 1e6 / float64(in.distinct)

	c := pipeline.NewSampleCache(pipeline.CacheConfig{HostMemBytes: total + 1<<20})
	t0 = threadCPU()
	for i, p := range payloads {
		c.Put(i, p, in.mem.Labels[i])
	}
	s.cachePutUS = (threadCPU() - t0).Seconds() * 1e6 / float64(len(payloads))
	t0 = threadCPU()
	for i := range payloads {
		if _, _, ok, _ := c.Get(i); !ok {
			return s, fmt.Errorf("solo cache lost sample %d", i)
		}
	}
	s.cacheGetUS = (threadCPU() - t0).Seconds() * 1e6 / float64(len(payloads))
	return s, nil
}

// rusageThread is Linux's RUSAGE_THREAD.
const rusageThread = 1

// threadCPU is the calling OS thread's user+sys CPU time; callers lock
// their goroutine to the thread.
func threadCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// checkNames reports metric names in m that defs does not declare, or the
// reverse.
func checkNames(m map[string]metric, defs []metricDef) error {
	var missing, extra []string
	declared := map[string]bool{}
	for _, d := range defs {
		declared[d.name] = true
		if _, ok := m[d.name]; !ok {
			missing = append(missing, d.name)
		}
	}
	for name := range m {
		if !declared[name] {
			extra = append(extra, name)
		}
	}
	if len(missing)+len(extra) > 0 {
		sort.Strings(extra)
		return fmt.Errorf("metrics missing %v, undeclared %v", missing, extra)
	}
	return nil
}
