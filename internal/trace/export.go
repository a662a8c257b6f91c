package trace

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// Chrome trace_event export. The format is the JSON Array/Object flavor
// consumed by Perfetto and chrome://tracing: a {"traceEvents": [...]}
// object whose entries carry a phase ("X" complete, "B"/"E" nested
// slices, "i" instants, "M" metadata), microsecond timestamps, and
// pid/tid lanes. The mapping here:
//
//   - links become processes (pid = linkPIDBase+link), with one thread
//     per transmit direction; matched PacketSent/PacketDelivered pairs
//     render as "X" slices whose duration is the packet's wire time,
//     and credit stalls as instants on the transmitting thread.
//   - nodes become processes (pid = nodePIDBase+node) with threads for
//     boot, MPI and the message layer; barriers and rendezvous render
//     as "B"/"E" slices, boot phases and ring-full stalls as instants.
const (
	nodePIDBase = 1
	linkPIDBase = 1000

	tidBoot = 1
	tidMPI  = 2
	tidMsg  = 3
)

// chromeEvent is one trace_event entry. Fields are emitted in a fixed
// order via struct tags so exports are byte-stable for identical event
// streams.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

func micros(t int64) float64 { return float64(t) / 1e6 } // ps -> us

// WriteChrome renders events as Chrome trace_event JSON. Events must be
// in emission order (Collector.Events returns them that way); output
// entries are sorted by timestamp as the viewers require.
func WriteChrome(w io.Writer, events []Event) error {
	var out []chromeEvent
	type pending struct {
		at int64
		ev Event
	}
	type packetKey struct {
		link, side int
		seq        uint64
	}
	sent := make(map[packetKey]pending)
	named := map[int]string{} // pid -> process name

	for _, ev := range events {
		switch ev.Kind {
		case KindPacketSent:
			sent[packetKey{ev.Link, ev.Src, ev.Seq}] = pending{int64(ev.At), ev}
		case KindPacketDelivered:
			k := packetKey{ev.Link, ev.Src, ev.Seq}
			tx, ok := sent[k]
			if !ok {
				out = append(out, chromeEvent{Name: ev.Label, Ph: "i",
					Ts: micros(int64(ev.At)), Pid: linkPIDBase + ev.Link,
					Tid: ev.Src, S: "t"})
				continue
			}
			delete(sent, k)
			dur := micros(int64(ev.At) - tx.at)
			pid := linkPIDBase + ev.Link
			named[pid] = fmt.Sprintf("link%d", ev.Link)
			out = append(out, chromeEvent{Name: tx.ev.Label, Ph: "X",
				Ts: micros(tx.at), Dur: &dur, Pid: pid, Tid: ev.Src,
				Args: map[string]any{"bytes": tx.ev.Bytes, "seq": ev.Seq}})
		case KindCreditStall:
			pid := linkPIDBase + ev.Link
			named[pid] = fmt.Sprintf("link%d", ev.Link)
			out = append(out, chromeEvent{Name: "credit-stall", Ph: "i",
				Ts: micros(int64(ev.At)), Pid: pid, Tid: ev.Src, S: "t"})
		case KindRingFull:
			pid := nodePIDBase + ev.Src
			named[pid] = fmt.Sprintf("node%d", ev.Src)
			out = append(out, chromeEvent{Name: fmt.Sprintf("ring-full->n%d", ev.Dst),
				Ph: "i", Ts: micros(int64(ev.At)), Pid: pid, Tid: tidMsg, S: "t"})
		case KindBarrierEnter:
			pid := nodePIDBase + ev.Node
			named[pid] = fmt.Sprintf("node%d", ev.Node)
			out = append(out, chromeEvent{Name: "barrier", Ph: "B",
				Ts: micros(int64(ev.At)), Pid: pid, Tid: tidMPI,
				Args: map[string]any{"epoch": ev.Seq}})
		case KindBarrierExit:
			out = append(out, chromeEvent{Name: "barrier", Ph: "E",
				Ts: micros(int64(ev.At)), Pid: nodePIDBase + ev.Node, Tid: tidMPI})
		case KindRendezvousStart:
			pid := nodePIDBase + ev.Node
			named[pid] = fmt.Sprintf("node%d", ev.Node)
			out = append(out, chromeEvent{Name: fmt.Sprintf("rendezvous->n%d", ev.Dst),
				Ph: "B", Ts: micros(int64(ev.At)), Pid: pid, Tid: tidMPI,
				Args: map[string]any{"bytes": ev.Bytes}})
		case KindRendezvousDone:
			out = append(out, chromeEvent{Name: fmt.Sprintf("rendezvous->n%d", ev.Dst),
				Ph: "E", Ts: micros(int64(ev.At)), Pid: nodePIDBase + ev.Node, Tid: tidMPI})
		case KindBootPhase:
			pid := nodePIDBase + ev.Node
			named[pid] = fmt.Sprintf("node%d", ev.Node)
			out = append(out, chromeEvent{Name: ev.Label, Ph: "i",
				Ts: micros(int64(ev.At)), Pid: pid, Tid: tidBoot, S: "t"})
		case KindForward, KindMasterAbort:
			pid := nodePIDBase + ev.Node
			named[pid] = fmt.Sprintf("node%d", ev.Node)
			out = append(out, chromeEvent{Name: ev.Kind.String(), Ph: "i",
				Ts: micros(int64(ev.At)), Pid: pid, Tid: tidMsg, S: "t"})
		case KindPhaseSpan:
			// Profiler phase spans render as complete slices on the link
			// (or node) process, one lane per transmit direction.
			pid, tid := nodePIDBase, tidMsg
			if ev.Link >= 0 {
				pid, tid = linkPIDBase+ev.Link, ev.Src
				named[pid] = fmt.Sprintf("link%d", ev.Link)
			} else if ev.Node >= 0 {
				pid = nodePIDBase + ev.Node
				named[pid] = fmt.Sprintf("node%d", ev.Node)
			}
			dur := micros(int64(ev.Dur))
			out = append(out, chromeEvent{Name: ev.Label, Ph: "X",
				Ts: micros(int64(ev.At)), Dur: &dur, Pid: pid, Tid: tid})
		case KindAlert, KindAlertResolved:
			// Alerts land on the lane of whatever they scope to: a link
			// process when Link is set, a node process otherwise.
			pid, tid := nodePIDBase, tidMsg
			if ev.Link >= 0 {
				pid, tid = linkPIDBase+ev.Link, 0
				named[pid] = fmt.Sprintf("link%d", ev.Link)
			} else if ev.Node >= 0 {
				pid = nodePIDBase + ev.Node
				named[pid] = fmt.Sprintf("node%d", ev.Node)
			}
			out = append(out, chromeEvent{Name: ev.Kind.String() + ": " + ev.Label,
				Ph: "i", Ts: micros(int64(ev.At)), Pid: pid, Tid: tid, S: "g"})
		}
	}
	// Unmatched sends (still in flight at capture end) become instants.
	for _, tx := range sent {
		out = append(out, chromeEvent{Name: tx.ev.Label, Ph: "i",
			Ts: micros(tx.at), Pid: linkPIDBase + tx.ev.Link, Tid: tx.ev.Src, S: "t"})
	}

	// Viewers require time order; ties keep a deterministic secondary
	// order so identical event streams export byte-identically.
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Ts != out[j].Ts {
			return out[i].Ts < out[j].Ts
		}
		if out[i].Pid != out[j].Pid {
			return out[i].Pid < out[j].Pid
		}
		return out[i].Tid < out[j].Tid
	})

	// Metadata names the lanes; emitted first, sorted by pid.
	var meta []chromeEvent
	pids := make([]int, 0, len(named))
	for pid := range named {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	for _, pid := range pids {
		meta = append(meta, chromeEvent{Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": named[pid]}})
		if pid >= linkPIDBase {
			meta = append(meta,
				chromeEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: 0,
					Args: map[string]any{"name": "A->B"}},
				chromeEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: 1,
					Args: map[string]any{"name": "B->A"}})
		} else {
			for tid, name := range map[int]string{tidBoot: "boot", tidMPI: "mpi", tidMsg: "msg"} {
				meta = append(meta, chromeEvent{Name: "thread_name", Ph: "M",
					Pid: pid, Tid: tid, Args: map[string]any{"name": name}})
			}
		}
	}
	sort.SliceStable(meta, func(i, j int) bool {
		if meta[i].Pid != meta[j].Pid {
			return meta[i].Pid < meta[j].Pid
		}
		if meta[i].Name != meta[j].Name {
			return meta[i].Name < meta[j].Name
		}
		return meta[i].Tid < meta[j].Tid
	})

	doc := struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
		DisplayUnit string        `json:"displayTimeUnit"`
	}{TraceEvents: append(meta, out...), DisplayUnit: "ns"}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// WriteCSV renders events as CSV with a fixed header, one event per
// row, in the given order. The encoding is deterministic: identical
// event streams produce identical bytes, which the determinism
// regression test relies on.
func WriteCSV(w io.Writer, events []Event) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"at_ps", "kind", "node", "link", "src", "dst", "seq", "bytes", "label"}); err != nil {
		return err
	}
	for _, ev := range events {
		rec := []string{
			strconv.FormatInt(int64(ev.At), 10),
			ev.Kind.String(),
			strconv.Itoa(ev.Node),
			strconv.Itoa(ev.Link),
			strconv.Itoa(ev.Src),
			strconv.Itoa(ev.Dst),
			strconv.FormatUint(ev.Seq, 10),
			strconv.Itoa(ev.Bytes),
			ev.Label,
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
