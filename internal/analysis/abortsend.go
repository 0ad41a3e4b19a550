package analysis

// AbortSend enforces the abort discipline on the packages whose channel
// consumers can vanish mid-send: every channel send there must sit in a
// select that also has an escape case — a receive (an abort or deadline
// channel) or a default. A bare send blocks forever once its consumer is
// gone, and each package loses its consumers a different way:
//
//   - internal/dist: a peer evicted mid-collective wedges every survivor of
//     the very failure the elastic layer exists to absorb;
//   - internal/pipeline: Iterator.Close tears the consumer down under the
//     stage DAG's worker pools, leaking the pool and wedging epoch teardown;
//   - internal/dataserve: the dispatcher, workers and per-epoch
//     source/sink goroutines outlive a tenant detach, iterator close or
//     service shutdown, leaking past Service.Close.
//
// The concurrency analyzer's loop rule is narrower (loops only); this one
// covers every send in the listed packages. Test files are exempt (the
// loader skips them).
var AbortSend = &Analyzer{
	Name: "abortsend",
	Doc:  "flag channel sends in internal/dist, internal/pipeline and internal/dataserve not guarded by a select with an abort case",
	Run:  runAbortSend,
}

// abortSendMessages maps each package under the rule to its finding text,
// which names the package's own idiom for a guarded send.
var abortSendMessages = map[string]string{
	"scipp/internal/dist":      "channel send in internal/dist without an abort escape: use select { case ch <- v: case <-abort: }",
	"scipp/internal/pipeline":  "channel send in internal/pipeline without an abort escape: use sendItem or select { case ch <- v: case <-abort: }",
	"scipp/internal/dataserve": "channel send in internal/dataserve without an abort escape: use select { case ch <- v: case <-abort: } or a default case",
}

func runAbortSend(pass *Pass) {
	if msg, ok := abortSendMessages[pass.Path]; ok {
		reportUnguardedSends(pass, msg)
	}
}
