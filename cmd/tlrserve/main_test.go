package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"tlrchol/internal/serve"
)

// TestReplicasFlag: -replicas 0 disables replication, so a fingerprint
// solved past the promotion threshold is never copied; -replicas 1
// copies it.
func TestReplicasFlag(t *testing.T) {
	for _, tc := range []struct{ replicas, promotions int }{{0, 0}, {1, 1}} {
		const promoteAfter = 2
		fl := serve.NewFleet(fleetConfig(3, tc.replicas, promoteAfter, time.Minute,
			serve.Config{BatchWindow: -1, Workers: 1}))
		ts := httptest.NewServer(fl.Handler())
		t.Cleanup(ts.Close)
		spec := serve.ProblemSpec{N: 128, Tile: 64, Tol: 1e-7}
		for i := 0; i < promoteAfter+2; i++ {
			body, _ := json.Marshal(serve.SolveRequest{Problem: &spec, NRHS: 1, RHSSeed: int64(i + 1)})
			resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("-replicas %d: solve %d: %d: %s", tc.replicas, i, resp.StatusCode, msg)
			}
		}
		if got := fl.Stats().Replication.Promotions; got != uint64(tc.promotions) {
			t.Errorf("-replicas %d: %d promotions after %d solves, want %d", tc.replicas, got, promoteAfter+2, tc.promotions)
		}
	}
}
