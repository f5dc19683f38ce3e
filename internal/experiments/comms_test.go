package experiments

import (
	"encoding/json"
	"strings"
	"testing"

	"harpgbdt/internal/dist"
)

func TestCommsExperiment(t *testing.T) {
	ledger, tb, err := Comms(Scale{Rows: 3000, Rounds: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if tb == nil || len(tb.Rows) == 0 {
		t.Fatal("summary table empty")
	}
	if !strings.Contains(tb.Title, "dist-") {
		t.Fatalf("table %q, want the dist trainer", tb.Title)
	}
	if err := ledger.Conserved(); err != nil {
		t.Fatal(err)
	}
	ct := ledger.Totals
	if ct.Nodes != DefaultCommsNodes {
		t.Fatalf("ledger covers %d nodes, want %d: %+v", ct.Nodes, DefaultCommsNodes, ct)
	}
	if ct.Rounds != 2 || ct.Steps == 0 || ct.MsgsSent == 0 || ct.SentBytes == 0 {
		t.Fatalf("empty ledger totals: %+v", ct)
	}
	if ct.SentBytes != ct.FirstSendBytes || ct.RetransmitBytes != 0 || ct.LostBytes != 0 {
		t.Fatalf("fault-free run should be all first-sends: %+v", ct)
	}
	// The ledger must survive the JSON round trip of the comms report.
	data, err := json.Marshal(ledger)
	if err != nil {
		t.Fatal(err)
	}
	var round dist.CommsReport
	if err := json.Unmarshal(data, &round); err != nil {
		t.Fatal(err)
	}
	if round.Totals != ct || len(round.Nodes) != len(ledger.Nodes) || len(round.Rounds) != len(ledger.Rounds) {
		t.Fatal("JSON round trip changed the ledger")
	}
}
