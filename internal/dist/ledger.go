package dist

// The comms ledger accounts every simulated message the cluster exchanges.
// Each allreduce step is a sequence of attempts; the ledger categorizes the
// payload bytes of every attempt exactly once, by the attempt's outcome:
//
//   - a successful attempt's bytes are DELIVERED;
//   - a failed attempt that is retried sent bytes that must be sent again —
//     they are accounted RETRANSMITTED (the waste the retry policy causes);
//   - a failed attempt that exhausts the retry budget and aborts the step
//     sent bytes that no retry recovers — they are LOST.
//
// Because the three outcomes partition the attempts, the ledger conserves
// by construction: Sent = Delivered + Retransmitted + Lost, per node and in
// total. FirstSendBytes is the attempt-0 slice of Sent — in a fault-free
// run it equals both Sent and Delivered, and it always equals the analytic
// dense-histogram volume (nodes × histogram entries × bin bytes), so
// a scaling study can separate the algorithm's intrinsic communication from
// the failure-recovery overhead on top.
//
// Message counts use the ring-allreduce hop count: each participating node
// sends 2(N-1) messages per attempt (reduce-scatter plus allgather passes),
// matching the latency term of the cost model. Payload bytes per node per
// attempt are the full dense histogram batch (batch nodes × total bins ×
// 16 bytes GH), the quantity the paper's communication analysis bounds.

import (
	"fmt"
	"io"
	"text/tabwriter"

	"harpgbdt/internal/obs"
)

var (
	mCommsMsgsSent = obs.DefaultRegistry().Counter("dist_comms_msgs_sent_total",
		"Simulated allreduce messages sent (all attempts, all nodes)")
	mCommsBytesSent = obs.DefaultRegistry().Counter("dist_comms_bytes_sent_total",
		"Simulated payload bytes sent (all attempts, all nodes)")
	mCommsBytesDelivered = obs.DefaultRegistry().Counter("dist_comms_bytes_delivered_total",
		"Simulated payload bytes of successful allreduce attempts")
	mCommsBytesRetransmitted = obs.DefaultRegistry().Counter("dist_comms_bytes_retransmitted_total",
		"Simulated payload bytes of failed attempts that were retried")
	mCommsBytesLost = obs.DefaultRegistry().Counter("dist_comms_bytes_lost_total",
		"Simulated payload bytes of failed attempts that aborted a step")
	mCommsSteps = obs.DefaultRegistry().Counter("dist_allreduce_steps_total",
		"Completed simulated allreduce steps")
	mCommsStepNanos = obs.DefaultRegistry().Counter("dist_allreduce_step_nanos_total",
		"Simulated virtual-clock nanoseconds spent in allreduce steps (incl. retries)")
)

// attempt outcomes (the categories that partition sent bytes).
const (
	attemptDelivered = iota
	attemptRetransmitted
	attemptLost
)

// NodeComms is one cluster node's row of the comms ledger.
type NodeComms struct {
	// Node is the cluster node index.
	Node int `json:"node"`
	// MsgsSent counts ring messages across all attempts; the three
	// categories below partition it by attempt outcome.
	MsgsSent          int64 `json:"msgs_sent"`
	MsgsDelivered     int64 `json:"msgs_delivered"`
	MsgsRetransmitted int64 `json:"msgs_retransmitted"`
	MsgsLost          int64 `json:"msgs_lost"`
	// SentBytes is the node's total payload volume; always equal to
	// DeliveredBytes + RetransmitBytes + LostBytes.
	SentBytes       int64 `json:"sent_bytes"`
	DeliveredBytes  int64 `json:"delivered_bytes"`
	RetransmitBytes int64 `json:"retransmit_bytes"`
	LostBytes       int64 `json:"lost_bytes"`
	// FirstSendBytes is the attempt-0 slice of SentBytes: the intrinsic
	// dense-histogram volume, independent of faults and retries.
	FirstSendBytes int64 `json:"first_send_bytes"`
}

// RoundComms aggregates one boosting round's communication.
type RoundComms struct {
	// Round is the 1-based boosting round (one tree per round).
	Round int `json:"round"`
	// Steps is the number of allreduce steps the round completed.
	Steps int `json:"steps"`
	// Msgs and Bytes sum all attempts of the round's steps.
	Msgs  int64 `json:"msgs"`
	Bytes int64 `json:"bytes"`
	// Retries counts failed attempts that were retried.
	Retries int `json:"retries"`
	// StepNanos sums the rounds' allreduce step latencies on the virtual
	// clock, including timeout and backoff time.
	StepNanos int64 `json:"step_nanos"`
}

// CommsTotals is the cluster-wide summary of the ledger.
type CommsTotals struct {
	Nodes   int `json:"nodes"`
	Rounds  int `json:"rounds"`
	Steps   int `json:"steps"`
	Retries int `json:"retries"`
	// Deadlines counts per-step deadline expiries: every one becomes
	// either a retransmitted or a lost attempt.
	Deadlines int `json:"deadlines"`

	MsgsSent          int64 `json:"msgs_sent"`
	MsgsDelivered     int64 `json:"msgs_delivered"`
	MsgsRetransmitted int64 `json:"msgs_retransmitted"`
	MsgsLost          int64 `json:"msgs_lost"`

	SentBytes       int64 `json:"sent_bytes"`
	DeliveredBytes  int64 `json:"delivered_bytes"`
	RetransmitBytes int64 `json:"retransmit_bytes"`
	LostBytes       int64 `json:"lost_bytes"`
	FirstSendBytes  int64 `json:"first_send_bytes"`

	// StepNanos / RetryNanos decompose the virtual-clock communication
	// time: total allreduce step time, and the slice of it lost to
	// timeouts and backoff.
	StepNanos  int64 `json:"step_nanos"`
	RetryNanos int64 `json:"retry_nanos"`
}

// CommsReport is the serializable ledger snapshot: per-node table,
// per-round aggregates, cluster totals. It is the whole JSON report the
// comms experiment writes (`experiments -comms-out comms.json comms`).
type CommsReport struct {
	Nodes  []NodeComms  `json:"nodes"`
	Rounds []RoundComms `json:"rounds"`
	Totals CommsTotals  `json:"totals"`
}

// commsLedger is the Trainer-internal mutable ledger state.
type commsLedger struct {
	nodes     []NodeComms
	rounds    []RoundComms
	round     int // current 1-based round; 0 before the first BuildTree
	deadlines int // see CommsTotals
}

func newCommsLedger(nodes int) *commsLedger {
	l := &commsLedger{nodes: make([]NodeComms, nodes)}
	for i := range l.nodes {
		l.nodes[i].Node = i
	}
	return l
}

// beginRound advances the ledger to the next boosting round.
func (l *commsLedger) beginRound() {
	l.round++
	l.rounds = append(l.rounds, RoundComms{Round: l.round})
}

func (l *commsLedger) curRound() *RoundComms {
	if len(l.rounds) == 0 {
		l.beginRound()
	}
	return &l.rounds[len(l.rounds)-1]
}

// recordAttempt accounts one allreduce attempt: every node sends the
// payload once, categorized by the attempt's outcome.
func (l *commsLedger) recordAttempt(bytes int64, attempt, outcome int) {
	msgs := int64(2 * (len(l.nodes) - 1))
	participants := int64(len(l.nodes))
	for node := range l.nodes {
		nc := &l.nodes[node]
		nc.MsgsSent += msgs
		nc.SentBytes += bytes
		if attempt == 0 {
			nc.FirstSendBytes += bytes
		}
		switch outcome {
		case attemptDelivered:
			nc.MsgsDelivered += msgs
			nc.DeliveredBytes += bytes
		case attemptRetransmitted:
			nc.MsgsRetransmitted += msgs
			nc.RetransmitBytes += bytes
		case attemptLost:
			nc.MsgsLost += msgs
			nc.LostBytes += bytes
		}
	}
	r := l.curRound()
	r.Msgs += participants * msgs
	r.Bytes += participants * bytes
	mCommsMsgsSent.Add(participants * msgs)
	mCommsBytesSent.Add(participants * bytes)
	switch outcome {
	case attemptDelivered:
		mCommsBytesDelivered.Add(participants * bytes)
	case attemptRetransmitted:
		mCommsBytesRetransmitted.Add(participants * bytes)
		r.Retries++
	case attemptLost:
		mCommsBytesLost.Add(participants * bytes)
	}
}

// recordStep accounts one completed allreduce step's virtual-clock latency
// (successful transfer plus any timeout/backoff time spent on the way).
func (l *commsLedger) recordStep(nanos int64) {
	r := l.curRound()
	r.Steps++
	r.StepNanos += nanos
	mCommsSteps.Inc()
	mCommsStepNanos.Add(nanos)
}

// CommsReport snapshots the ledger. Safe to call between trees; the report
// is a copy and later training does not mutate it.
func (t *Trainer) CommsReport() *CommsReport {
	l := t.ledger
	rep := &CommsReport{
		Nodes:  append([]NodeComms(nil), l.nodes...),
		Rounds: append([]RoundComms(nil), l.rounds...),
	}
	tot := &rep.Totals
	tot.Nodes = len(l.nodes)
	tot.Rounds = l.round
	tot.Deadlines = l.deadlines
	tot.RetryNanos = t.retryNanos
	for i := range rep.Nodes {
		nc := &rep.Nodes[i]
		tot.MsgsSent += nc.MsgsSent
		tot.MsgsDelivered += nc.MsgsDelivered
		tot.MsgsRetransmitted += nc.MsgsRetransmitted
		tot.MsgsLost += nc.MsgsLost
		tot.SentBytes += nc.SentBytes
		tot.DeliveredBytes += nc.DeliveredBytes
		tot.RetransmitBytes += nc.RetransmitBytes
		tot.LostBytes += nc.LostBytes
		tot.FirstSendBytes += nc.FirstSendBytes
	}
	for _, r := range rep.Rounds {
		tot.Steps += r.Steps
		tot.Retries += r.Retries
		tot.StepNanos += r.StepNanos
	}
	return rep
}

// Conserved verifies the ledger's conservation invariant: for every node
// (and therefore in total), sent = delivered + retransmitted + lost, in
// both messages and bytes. Returns a descriptive error on violation.
func (r *CommsReport) Conserved() error {
	for _, nc := range r.Nodes {
		if nc.SentBytes != nc.DeliveredBytes+nc.RetransmitBytes+nc.LostBytes {
			return fmt.Errorf("dist: node %d bytes not conserved: sent %d != delivered %d + retransmitted %d + lost %d",
				nc.Node, nc.SentBytes, nc.DeliveredBytes, nc.RetransmitBytes, nc.LostBytes)
		}
		if nc.MsgsSent != nc.MsgsDelivered+nc.MsgsRetransmitted+nc.MsgsLost {
			return fmt.Errorf("dist: node %d messages not conserved: sent %d != delivered %d + retransmitted %d + lost %d",
				nc.Node, nc.MsgsSent, nc.MsgsDelivered, nc.MsgsRetransmitted, nc.MsgsLost)
		}
	}
	return nil
}

// WriteTable renders the per-node ledger and totals as an aligned text
// table (the CLI `comms` report).
func (r *CommsReport) WriteTable(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "node\tmsgs\tdelivered\tretrans\tlost\tsentMB\tfirstMB\tretransMB\tlostMB")
	mb := func(b int64) string { return fmt.Sprintf("%.3f", float64(b)/1e6) }
	for _, nc := range r.Nodes {
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t%s\t%s\t%s\t%s\n",
			nc.Node, nc.MsgsSent, nc.MsgsDelivered, nc.MsgsRetransmitted, nc.MsgsLost,
			mb(nc.SentBytes), mb(nc.FirstSendBytes), mb(nc.RetransmitBytes), mb(nc.LostBytes))
	}
	t := r.Totals
	fmt.Fprintf(tw, "total\t%d\t%d\t%d\t%d\t%s\t%s\t%s\t%s\n",
		t.MsgsSent, t.MsgsDelivered, t.MsgsRetransmitted, t.MsgsLost,
		mb(t.SentBytes), mb(t.FirstSendBytes), mb(t.RetransmitBytes), mb(t.LostBytes))
	fmt.Fprintf(tw, "\nnodes %d  rounds %d  steps %d  deadlines %d  retries %d\n",
		t.Nodes, t.Rounds, t.Steps, t.Deadlines, t.Retries)
	fmt.Fprintf(tw, "step %.3fms  retry %.3fms (virtual clock)\n",
		float64(t.StepNanos)/1e6, float64(t.RetryNanos)/1e6)
	return tw.Flush()
}
