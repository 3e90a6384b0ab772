package loadgen

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"mendel/internal/core"
	"mendel/internal/datagen"
	"mendel/internal/gateway"
	"mendel/internal/obs"
	"mendel/internal/seq"
)

// newGatewayServer stands up the full serving stack (cluster, gateway, obs
// mux) behind httptest for the load generator to drive.
func newGatewayServer(t *testing.T, gcfg gateway.Config) (*httptest.Server, *core.InProcess) {
	t.Helper()
	cfg := core.DefaultConfig(seq.Protein)
	cfg.Groups = 2
	cfg.SampleSize = 500
	ip, err := core.NewInProcess(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	gen := datagen.New(seq.Protein, 5)
	db, err := gen.Database(12, 300, 50, "ref")
	if err != nil {
		t.Fatal(err)
	}
	if err := ip.Index(context.Background(), db); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	gw := gateway.New(ip.Cluster, gcfg, reg)
	srv := httptest.NewServer(obs.Surface{Registry: reg, Routes: gw.Routes()}.Handler())
	t.Cleanup(srv.Close)
	return srv, ip
}

// TestLoadOpenLoopKeepsOfferingUnderSlowServer pins the open-loop property:
// arrivals follow the schedule even when the server is slow. A closed loop
// with these numbers could complete at most ~5 requests; the open loop must
// offer close to rate×duration regardless.
func TestLoadOpenLoopKeepsOfferingUnderSlowServer(t *testing.T) {
	var served atomic.Int64
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		time.Sleep(200 * time.Millisecond)
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"hits":[],"elapsed_ms":200}`))
	}))
	defer slow.Close()

	res, err := Run(context.Background(), Config{
		URL:      slow.URL,
		Rate:     100,
		Duration: 500 * time.Millisecond,
		Kind:     seq.Protein,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The schedule calls for ~50 arrivals in 500ms; allow scheduling slack
	// but fail anything resembling closed-loop behaviour (~2-3 requests).
	if res.Sent < 30 {
		t.Fatalf("open loop sent only %d requests against a slow server (closed-loop symptom)", res.Sent)
	}
	if res.OK+res.Errors != res.Sent {
		t.Fatalf("accounting: ok=%d errors=%d sent=%d", res.OK, res.Errors, res.Sent)
	}
}

func TestLoadReadMixAgainstGateway(t *testing.T) {
	srv, _ := newGatewayServer(t, gateway.Config{MaxInFlight: 8, MaxQueue: 64})
	res, err := Run(context.Background(), Config{
		URL:      srv.URL,
		Rate:     100,
		Duration: time.Second,
		Mix:      MixRead,
		Kind:     seq.Protein,
		QueryLen: 48,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent == 0 || res.OK == 0 {
		t.Fatalf("sent=%d ok=%d, want both > 0", res.Sent, res.OK)
	}
	if res.Errors != 0 {
		t.Fatalf("%d non-shed errors under read mix", res.Errors)
	}
	if res.GoodputQPS <= 0 || res.P50Ms <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	// The JSON artifact round-trips.
	data, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.OK != res.OK {
		t.Fatalf("JSON round trip lost ok count: %d != %d", back.OK, res.OK)
	}
}

func TestLoadWriteMixIngestsAndQueries(t *testing.T) {
	srv, ip := newGatewayServer(t, gateway.Config{MaxInFlight: 8, MaxQueue: 64})
	before := ip.NumSequences()
	res, err := Run(context.Background(), Config{
		URL:         srv.URL,
		Rate:        50,
		Duration:    time.Second,
		Mix:         MixWrite,
		Kind:        seq.Protein,
		QueryLen:    48,
		IngestEvery: 5,
		Seed:        2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ingests == 0 || res.IngestOK == 0 {
		t.Fatalf("write mix performed no ingests: %+v", res)
	}
	if res.Errors != 0 {
		t.Fatalf("%d errors under write mix", res.Errors)
	}
	if got := ip.NumSequences(); got != before+res.IngestOK {
		t.Fatalf("cluster has %d sequences, want %d+%d", got, before, res.IngestOK)
	}
}

// TestLoadBurstMixShedsButStaysCorrect drives a burst mix into a tiny
// admission window: shed responses are expected and tolerated, anything
// else (5xx, transport errors) is not.
func TestLoadBurstMixShedsButStaysCorrect(t *testing.T) {
	srv, _ := newGatewayServer(t, gateway.Config{MaxInFlight: 1, MaxQueue: 1})
	res, err := Run(context.Background(), Config{
		URL:      srv.URL,
		Rate:     100,
		Duration: time.Second,
		Mix:      MixBurst,
		Kind:     seq.Protein,
		QueryLen: 48,
		Tenants:  3,
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d non-shed errors under overload (shed=%d ok=%d)", res.Errors, res.Shed, res.OK)
	}
	if res.OK == 0 {
		t.Fatal("overload starved every request; admission should keep goodput > 0")
	}
	if res.OK+res.Shed+res.Deadline != res.Sent {
		t.Fatalf("accounting: ok=%d shed=%d deadline=%d sent=%d", res.OK, res.Shed, res.Deadline, res.Sent)
	}
}

func TestLoadConfigValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"missing URL", Config{Rate: 1, Duration: time.Second}},
		{"zero rate", Config{URL: "http://x", Duration: time.Second}},
		{"zero duration", Config{URL: "http://x", Rate: 1}},
		{"unknown mix", Config{URL: "http://127.0.0.1:0", Rate: 10, Duration: 100 * time.Millisecond, Mix: "wrtie"}},
	} {
		if _, err := Run(context.Background(), tc.cfg); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}
