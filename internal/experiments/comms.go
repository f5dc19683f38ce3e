package experiments

import (
	"harpgbdt/internal/boost"
	"harpgbdt/internal/dist"
	"harpgbdt/internal/profile"
	"harpgbdt/internal/synth"
)

// DefaultCommsNodes is the cluster size of the comms experiment — three
// nodes is the smallest cluster where the ring allreduce has non-trivial
// topology (every node has distinct predecessor and successor).
const DefaultCommsNodes = 3

// Comms runs the distributed communication study: D8 trees (K=32) trained
// on the simulated DefaultCommsNodes-node cluster over the Higgs-like
// dataset. It returns the per-node message/byte ledger and a printable
// cluster-totals table; the per-node breakdown renders separately via
// (*dist.CommsReport).WriteTable.
func Comms(sc Scale) (*dist.CommsReport, *profile.Table, error) {
	sc = sc.withDefaults()
	ds, err := makeData(sc, synth.HiggsLike)
	if err != nil {
		return nil, nil, err
	}
	dt, err := dist.NewTrainer(dist.Config{
		Nodes: DefaultCommsNodes, WorkersPerNode: sc.Workers,
		TreeSize: 8, K: 32, Params: params(),
	}, ds)
	if err != nil {
		return nil, nil, err
	}
	if _, err := boost.Train(dt, ds, boost.Config{Rounds: sc.Rounds}, nil, nil); err != nil {
		return nil, nil, err
	}
	rep := dt.CommsReport()
	if err := rep.Conserved(); err != nil {
		return nil, nil, err
	}
	ct := rep.Totals
	tb := profile.NewTable("Distributed comms: "+dt.Name()+" on "+ds.Name,
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
	return rep, tb, nil
}
