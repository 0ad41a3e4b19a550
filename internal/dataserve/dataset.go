package dataserve

import (
	"errors"
	"fmt"
	"sync"

	"scipp/internal/codec"
	"scipp/internal/fault"
	"scipp/internal/pipeline"
	"scipp/internal/tensor"
)

// DatasetConfig registers one shared dataset with the service. The cache
// key of the issue — (dataset, codec, sample) — is realized as
// Name -> shared SampleCache -> sample index: one registration binds a
// dataset to exactly one codec, and every tenant attached to it shares the
// one decoded-sample cache.
type DatasetConfig struct {
	// Name is the registration key tenants attach by; required, unique.
	Name string
	// Data is the backing dataset (possibly a fault injector). Required.
	Data pipeline.Dataset
	// Format decodes Data's blobs. Required.
	Format codec.Format
	// Cache sizes the shared decoded-sample cache. Each resident is a
	// decoded sample's raw element bits plus its label, so size tiers for
	// exactly the decoded bytes plus the label bytes, not encoded bytes.
	// Integrity checksums and quarantine semantics are the SampleCache's
	// own.
	Cache pipeline.CacheConfig
	// MaxRetries bounds the flight owner's re-reads of a sample that fails
	// with a fault.Transient error before the failure is delivered to
	// every waiting tenant. Default 0: strict.
	MaxRetries int
	// CPUWorkers is the intra-sample decode parallelism (chunk decode is
	// deterministic, so this never affects output bits). Default 1.
	CPUWorkers int
	// PoisonK, when positive, arms the cross-tenant poison quarantine: a
	// sample whose decode fails for PoisonK distinct tenants (owners or
	// flight joiners) is blacklisted service-wide, and later requests
	// fast-fail with a *PoisonError before touching cache or workers —
	// every tenant pays the poison cost at most PoisonK times total.
	PoisonK int
}

// flight is one in-progress decode that concurrent requests for the same
// sample share: the owner decodes, everyone else blocks on done and copies
// data into a pooled tensor of its own. data is a clone of the decoded
// tensor, made only when someone joined: the owner's tensor goes to its
// tenant, which may recycle it while joiners are still copying.
type flight struct {
	done    chan struct{}
	joiners int // guarded by sd.mu while the flight is in sd.flights
	data    *tensor.Tensor
	label   *tensor.Tensor
	err     error
}

// layout is a decoded sample's dtype and shape. The cache holds only the
// raw element bits, so the service records the layout when it admits the
// sample; decode is deterministic, so it never changes.
type layout struct {
	dt    tensor.DType
	shape tensor.Shape
	bytes int
}

// sharedDataset is a registered dataset plus the shared decode machinery
// layered over it: the decoded-sample cache, the single-flight table, and
// the ownership/first-touch maps that make dedup accounting deterministic.
type sharedDataset struct {
	name       string
	svc        *Service
	ds         pipeline.Dataset
	format     codec.Format
	cache      *pipeline.SampleCache
	pool       *pipeline.SlabPool
	maxRetries int
	cpuWorkers int
	poisonK    int

	// mu orders the miss/flight/admission races: it may take cache.mu and
	// tenant mu inside it, never the reverse.
	mu            sync.Mutex
	flights       map[int]*flight
	owner         map[int]string              // sample -> tenant whose flight decoded it
	layouts       map[int]layout              // sample -> decoded layout of its residents
	touched       map[string]map[int]struct{} // tenant -> samples it has been served
	poisonVotes   map[int]map[string]struct{} // sample -> tenants whose serve failed
	poisoned      map[int]struct{}            // the service-wide blacklist
	decodes       int64
	dedup         int64
	retries       int64
	poisonedCount int64 // == len(poisoned)
	poisonRejects int64 // fast-fails served off the blacklist
	strays        int64 // cache hits served as misses: no layout, or wrong length

	// sizeMu guards the learned per-sample payload sizes the byte-weighted
	// dispatcher prices requests with. It is a leaf lock: taken under
	// svc.mu (dispatch, shed) and under no lock at all (fetch), and takes
	// nothing inside it.
	sizeMu sync.Mutex
	sizeOf map[int]int // sample index -> payload bytes (data + label)
}

func newSharedDataset(s *Service, cfg DatasetConfig) (*sharedDataset, error) {
	if cfg.Name == "" || cfg.Data == nil || cfg.Format == nil {
		return nil, fmt.Errorf("dataserve: dataset registration needs Name, Data and Format")
	}
	if cfg.CPUWorkers <= 0 {
		cfg.CPUWorkers = 1
	}
	return &sharedDataset{
		name:        cfg.Name,
		svc:         s,
		ds:          cfg.Data,
		format:      cfg.Format,
		cache:       pipeline.NewSampleCache(cfg.Cache),
		pool:        pipeline.NewSlabPool(),
		maxRetries:  cfg.MaxRetries,
		cpuWorkers:  cfg.CPUWorkers,
		poisonK:     cfg.PoisonK,
		flights:     make(map[int]*flight),
		owner:       make(map[int]string),
		layouts:     make(map[int]layout),
		touched:     make(map[string]map[int]struct{}),
		poisonVotes: make(map[int]map[string]struct{}),
		poisoned:    make(map[int]struct{}),
		sizeOf:      make(map[int]int),
	}, nil
}

// noteServed records one successful serve: the sample's payload size is
// learned for the dispatcher's byte-weighted cost (decode is deterministic,
// so the size is stable across re-decodes) and the bytes are credited to
// the service and tenant accounting. Called outside sd.mu.
func (sd *sharedDataset) noteServed(t *Tenant, index int, data, label *tensor.Tensor) {
	n := data.Bytes()
	if label != nil {
		n += label.Bytes()
	}
	sd.sizeMu.Lock()
	sd.sizeOf[index] = n
	sd.sizeMu.Unlock()
	sd.svc.noteServedBytes(t, int64(n))
}

// sampleSize reports the learned payload size of a sample, if it has ever
// been served.
func (sd *sharedDataset) sampleSize(index int) (int, bool) {
	sd.sizeMu.Lock()
	n, ok := sd.sizeOf[index]
	sd.sizeMu.Unlock()
	return n, ok
}

// fetch serves one sample to one tenant through the shared path: cache hit,
// single-flight join, or owned decode. The returned data tensor is always
// the caller's own pooled copy — tenants never alias cache or flight
// memory, so one tenant releasing a batch can never free another's bytes.
func (sd *sharedDataset) fetch(it *Iterator, index int) (*tensor.Tensor, *tensor.Tensor, error) {
	t := it.t
	sd.mu.Lock()
	// Blacklist path: a sample that already failed K distinct tenants is
	// refused before it can touch the cache or burn a decode.
	if _, bad := sd.poisoned[index]; bad {
		k := sd.poisonK
		sd.poisonRejects++
		sd.mu.Unlock()
		sd.svc.ob.poisonRejects.Inc()
		return nil, nil, &PoisonError{Dataset: sd.name, Tenant: t.name, Index: index, Tenants: k}
	}
	// Hit path: the shared cache verifies integrity under its own lock; a
	// quarantined resident reports a miss here and re-decodes below. A
	// resident the service never admitted (an outside Put through
	// Service.Cache) has no trusted layout, so it is served as a miss too.
	payload, label, hit, quarantined := sd.cache.Get(index)
	l, known := sd.layouts[index]
	if hit && (!known || len(payload) != l.bytes) {
		hit = false
		sd.strays++
	}
	sd.svc.noteCacheGet(hit, quarantined)
	if hit {
		owned := sd.owner[index] == t.name
		first := sd.firstTouchLocked(t.name, index)
		if first {
			sd.dedup++
			sd.svc.ob.decodeDedup.Inc()
		}
		sd.mu.Unlock()
		t.noteHit(owned, first)
		data := sd.pool.GetTensor(l.dt, l.shape)
		copy(data.Raw(), payload)
		sd.noteServed(t, index, data, label)
		return data, label, nil
	}
	// Join path: someone is already decoding this sample.
	if f, ok := sd.flights[index]; ok {
		f.joiners++
		sd.mu.Unlock()
		select {
		case <-f.done:
		case <-it.abort:
			return nil, nil, errDetached
		case <-sd.svc.abort:
			return nil, nil, errClosed
		}
		if f.err != nil {
			sd.mu.Lock()
			sd.poisonVoteLocked(t.name, index)
			sd.mu.Unlock()
			return nil, nil, &SampleError{Dataset: sd.name, Tenant: t.name, Index: index, Err: f.err}
		}
		sd.mu.Lock()
		first := sd.firstTouchLocked(t.name, index)
		if first {
			sd.dedup++
			sd.svc.ob.decodeDedup.Inc()
		}
		sd.mu.Unlock()
		t.noteJoin(first)
		data := sd.pool.GetTensor(f.data.DT, f.data.Shape)
		copy(data.Raw(), f.data.Raw())
		sd.noteServed(t, index, data, f.label)
		return data, f.label, nil
	}
	// Owner path: this request decodes for everyone.
	f := &flight{done: make(chan struct{})}
	sd.flights[index] = f
	sd.mu.Unlock()

	data, label, retries, err := sd.decode(index)
	sd.mu.Lock()
	if err == nil {
		// Admit before the flight disappears: a request that misses both
		// the cache and the flight table must mean the sample is truly
		// absent, or the decode count would depend on scheduling.
		if _, ok := sd.layouts[index]; !ok {
			sd.layouts[index] = layout{dt: data.DT, shape: data.Shape.Clone(), bytes: data.Bytes()}
		}
		if dropped := sd.cache.Put(index, data.Raw(), label); dropped > 0 {
			sd.svc.ob.cacheEvictions.Add(int64(dropped))
		}
		sd.owner[index] = t.name
		sd.firstTouchLocked(t.name, index)
		sd.decodes++
	} else {
		sd.poisonVoteLocked(t.name, index)
	}
	sd.retries += int64(retries)
	delete(sd.flights, index)
	joined := f.joiners > 0
	sd.mu.Unlock()
	if joined && err == nil {
		f.data = data.Clone()
	}
	f.label, f.err = label, err
	close(f.done)
	t.noteDecode(retries, err)
	sd.svc.noteDecode(retries, err)
	if err != nil {
		return nil, nil, &SampleError{Dataset: sd.name, Tenant: t.name, Index: index, Err: err}
	}
	sd.noteServed(t, index, data, label)
	return data, label, nil
}

// poisonVoteLocked records that tenant's serve of sample index failed
// terminally; the PoisonK-th distinct tenant's vote blacklists the sample
// service-wide. Callers hold sd.mu.
func (sd *sharedDataset) poisonVoteLocked(tenant string, index int) {
	if sd.poisonK <= 0 {
		return
	}
	if _, done := sd.poisoned[index]; done {
		return
	}
	votes := sd.poisonVotes[index]
	if votes == nil {
		votes = make(map[string]struct{})
		sd.poisonVotes[index] = votes
	}
	votes[tenant] = struct{}{}
	if len(votes) >= sd.poisonK {
		sd.poisoned[index] = struct{}{}
		sd.poisonedCount++
		delete(sd.poisonVotes, index)
		sd.svc.ob.poisoned.Inc()
	}
}

// firstTouchLocked records that tenant has now been served sample index and
// reports whether this was its first time. Callers hold sd.mu.
func (sd *sharedDataset) firstTouchLocked(tenant string, index int) bool {
	m := sd.touched[tenant]
	if m == nil {
		m = make(map[int]struct{})
		sd.touched[tenant] = m
	}
	if _, ok := m[index]; ok {
		return false
	}
	m[index] = struct{}{}
	return true
}

// decode is the flight owner's work: read, open, chunk-decode into a pooled
// tensor. Transient faults retry the whole read up to maxRetries, mirroring
// the pipeline's resilience re-decode, so an injector's transient log
// entries reconcile one-to-one with retries.
func (sd *sharedDataset) decode(index int) (data, label *tensor.Tensor, retries int, err error) {
	for attempt := 0; ; attempt++ {
		data, label, err = sd.decodeOnce(index)
		if err == nil || attempt >= sd.maxRetries || !errors.Is(err, fault.Transient) {
			return data, label, attempt, err
		}
	}
}

// decodeOnce is one decode attempt, bit-identical to the pipeline's
// DecodeStage CPU placement: same Open, same pooled destination, same
// deterministic chunk decomposition.
func (sd *sharedDataset) decodeOnce(index int) (*tensor.Tensor, *tensor.Tensor, error) {
	blob, err := sd.ds.Blob(index)
	if err != nil {
		return nil, nil, err
	}
	label, err := sd.ds.Label(index)
	if err != nil {
		return nil, nil, err
	}
	cd, err := sd.format.Open(blob)
	if err != nil {
		return nil, nil, err
	}
	dst := sd.pool.GetTensor(cd.OutputDType(), cd.OutputShape())
	err = codec.DecodeParallelInto(cd, dst, sd.cpuWorkers)
	codec.Recycle(cd)
	if err != nil {
		sd.pool.PutTensor(dst)
		return nil, nil, err
	}
	return dst, label, nil
}
