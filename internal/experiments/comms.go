package experiments

import (
	"errors"

	"harpgbdt/internal/dist"
	"harpgbdt/internal/profile"
)

// errNoComms flags a dist bench run that came back without its ledger.
var errNoComms = errors.New("experiments: distributed bench returned no comms section")

// DefaultCommsNodes is the cluster size of the comms experiment when the
// scale does not pin one — three nodes is the smallest cluster where the
// ring allreduce has non-trivial topology (every node has distinct
// predecessor and successor).
const DefaultCommsNodes = 3

// Comms runs the distributed communication study: the throughput benchmark
// on the simulated cluster (Scale.DistNodes nodes, DefaultCommsNodes when
// unset), returning the bench report whose comms section carries the
// per-node message/byte ledger, the ledger itself, and a printable
// cluster-totals table. The per-node breakdown renders separately via
// (*dist.CommsReport).WriteTable.
func Comms(sc Scale) (*BenchReport, *dist.CommsReport, *profile.Table, error) {
	if sc.DistNodes == 0 {
		sc.DistNodes = DefaultCommsNodes
	}
	rep, _, err := Bench(sc)
	if err != nil {
		return nil, nil, nil, err
	}
	if rep.Comms == nil {
		// Bench always attaches the ledger on the dist path; reaching here
		// means the wiring broke, not the run.
		return nil, nil, nil, errNoComms
	}
	if err := rep.Comms.Conserved(); err != nil {
		return nil, nil, nil, err
	}
	ct := rep.Comms.Totals
	tb := profile.NewTable("Distributed comms: "+rep.Engine+" on "+rep.Dataset,
		"metric", "value")
	tb.AddRow("nodes", ct.Nodes)
	tb.AddRow("rounds", ct.Rounds)
	tb.AddRow("allreduce steps", ct.Steps)
	tb.AddRow("msgs sent", ct.MsgsSent)
	tb.AddRow("sent MB", float64(ct.SentBytes)/1e6)
	tb.AddRow("first-send MB", float64(ct.FirstSendBytes)/1e6)
	tb.AddRow("retransmitted MB", float64(ct.RetransmitBytes)/1e6)
	tb.AddRow("lost MB", float64(ct.LostBytes)/1e6)
	tb.AddRow("retries", ct.Retries)
	tb.AddRow("step ms (virtual)", float64(ct.StepNanos)/1e6)
	return rep, rep.Comms, tb, nil
}
