package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Synthetic process ids for the non-replica tracks. Pool ids are small
// (a cluster has a handful of pools), so anything ≥ 1000 is safely clear.
const (
	pidFront    = 1000 // cluster front: admission counter, shed instants
	pidKVLink   = 1001 // KV transfer wire occupancy
	pidRequests = 1002 // per-request TTFT stage waterfalls
)

// perfettoEvent is one Chrome trace-event JSON object. Timestamps and
// durations are microseconds (the format's unit); ph selects the event
// type: "X" complete slice, "i" instant, "C" counter, "M" metadata,
// "s"/"f" flow start/finish.
type perfettoEvent struct {
	Name  string         `json:"name"`
	Ph    string         `json:"ph"`
	Ts    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int64          `json:"tid"`
	Cat   string         `json:"cat,omitempty"`
	ID    int64          `json:"id,omitempty"`
	Scope string         `json:"s,omitempty"`
	BP    string         `json:"bp,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// perfettoTrace is the top-level JSON object Perfetto and chrome://tracing
// both accept.
type perfettoTrace struct {
	TraceEvents     []perfettoEvent `json:"traceEvents"`
	DisplayTimeUnit string          `json:"displayTimeUnit"`
}

const usec = 1e6

// WritePerfetto renders the collected run as Chrome trace-event JSON:
// every pool is a process with one thread track per replica (engine
// iterations as slices, crash/recover as instants), the KV link is a
// process with per-destination lanes, each request is a thread in the
// "requests" process showing its TTFT stage waterfall, and booked
// handoffs connect prefill to decode with flow arrows. Open the file at
// https://ui.perfetto.dev or chrome://tracing.
func (c *Collector) WritePerfetto(w io.Writer) error {
	var evs []perfettoEvent

	// Process / thread naming metadata.
	pools := map[int]bool{}
	for _, it := range c.iters {
		pools[it.Pool] = true
	}
	for _, in := range c.instants {
		pools[in.Pool] = true
	}
	meta := func(pid int, tid int64, key, name string) {
		evs = append(evs, perfettoEvent{
			Name: key, Ph: "M", Pid: pid, Tid: tid,
			Args: map[string]any{"name": name},
		})
	}
	pids := make([]int, 0, len(pools))
	for pid := range pools {
		pids = append(pids, pid)
	}
	sort.Ints(pids) // deterministic output: identical runs produce identical bytes
	for _, pid := range pids {
		meta(pid, 0, "process_name", fmt.Sprintf("pool%d", pid))
	}
	meta(pidFront, 0, "process_name", "cluster-front")
	meta(pidKVLink, 0, "process_name", "kv-link")
	meta(pidRequests, 0, "process_name", "requests")

	// Replica tracks: engine iterations as complete slices, in (end time,
	// pool, replica) order. The emission order is not the simulator's to
	// promise: a replica that coasts reports a run's steps when the cluster
	// catches it up, not when they end. A stable sort keeps one replica's
	// same-instant iterations in the order they ran.
	sort.SliceStable(c.iters, func(i, j int) bool {
		a, b := &c.iters[i], &c.iters[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Pool != b.Pool {
			return a.Pool < b.Pool
		}
		return a.Rep < b.Rep
	})
	for _, it := range c.iters {
		evs = append(evs, perfettoEvent{
			Name: it.Kind, Ph: "X", Cat: "engine",
			Ts: (it.At - it.Dur) * usec, Dur: it.Dur * usec,
			Pid: it.Pool, Tid: int64(it.Rep),
			Args: map[string]any{
				"batch": it.Batch, "kv_bytes": it.KVBytes, "queue": it.QueueLen,
			},
		})
	}
	for _, in := range c.instants {
		evs = append(evs, perfettoEvent{
			Name: in.Name, Ph: "i", Cat: "fault", Scope: "t",
			Ts: in.At * usec, Pid: in.Pool, Tid: int64(in.Rep),
		})
	}

	// KV wire occupancy with prefill→decode flow arrows. The wire slice
	// sits on the destination lane; the flow starts on the source replica
	// track at book time and ends on the destination track at delivery.
	for _, ws := range c.wires {
		evs = append(evs, perfettoEvent{
			Name: fmt.Sprintf("xfer req%d", ws.ReqID), Ph: "X", Cat: "kv",
			Ts: ws.Start * usec, Dur: (ws.Done - ws.Start) * usec,
			Pid: pidKVLink, Tid: int64(ws.ToRep),
			Args: map[string]any{"bytes": ws.Bytes, "req": ws.ReqID},
		})
		evs = append(evs, perfettoEvent{
			Name: "handoff", Ph: "s", Cat: "handoff", ID: ws.ReqID,
			Ts: ws.BookAt * usec, Pid: ws.FromPool, Tid: int64(ws.FromRep),
		})
		evs = append(evs, perfettoEvent{
			Name: "handoff", Ph: "f", Cat: "handoff", ID: ws.ReqID, BP: "e",
			Ts: ws.Done * usec, Pid: ws.ToPool, Tid: int64(ws.ToRep),
		})
	}

	// Admission heap depth as a counter track.
	for _, hs := range c.heldSamples {
		evs = append(evs, perfettoEvent{
			Name: "admission_held", Ph: "C",
			Ts: hs.At * usec, Pid: pidFront,
			Args: map[string]any{"held": hs.Value},
		})
	}

	// Per-request TTFT waterfalls: one thread per request, one slice per
	// contiguous stage interval, plus shed instants on the front track.
	for _, s := range c.Spans() {
		for _, sg := range s.Segs {
			evs = append(evs, perfettoEvent{
				Name: sg.Stage.String(), Ph: "X", Cat: "request",
				Ts: sg.Start * usec, Dur: (sg.End - sg.Start) * usec,
				Pid: pidRequests, Tid: s.R.ID,
			})
		}
		if s.ShedWhere != "" {
			evs = append(evs, perfettoEvent{
				Name: "shed:" + s.ShedWhere, Ph: "i", Cat: "admission", Scope: "p",
				Ts: s.R.EndedAt * usec, Pid: pidFront, Tid: 0,
				Args: map[string]any{"req": s.R.ID},
			})
		}
	}

	enc := json.NewEncoder(w)
	return enc.Encode(perfettoTrace{TraceEvents: evs, DisplayTimeUnit: "ms"})
}

// WritePerfettoFile writes the trace to a file.
func (c *Collector) WritePerfettoFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := c.WritePerfetto(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
