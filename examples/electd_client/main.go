// electd_client: run the election service in-process, then drive it over
// real HTTP exactly as a remote client would — register a graph, read its
// cached spectral profile (the cost predictor), submit a batch election
// job, and poll for the deterministic result.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"wcle"
)

func main() {
	// The service stack: graph registry + bounded job queue + ops surface.
	srv, err := wcle.NewElectionServer(wcle.ServerOptions{QueueCap: 8})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go func() { _ = httpSrv.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	fmt.Println("electd serving on", base)

	// Register a 64-node random 8-regular expander under a name.
	post(base+"/v1/graphs", `{"name":"rr64","spec":{"family":"rr","n":64,"d":8,"seed":1}}`)

	// First GET computes the spectral profile (the expensive, memoized
	// part); the second is a cache hit. tmix and the Cheeger bounds tell
	// a client what an election will cost before submitting one.
	var info struct {
		Spectral struct {
			Tmix      int     `json:"tmix"`
			Lambda2   float64 `json:"lambda2"`
			CheegerLo float64 `json:"cheeger_lo"`
			CheegerHi float64 `json:"cheeger_hi"`
		} `json:"spectral"`
	}
	get(base+"/v1/graphs/rr64", &info)
	fmt.Printf("spectral profile: tmix=%d lambda2=%.4f phi in [%.4f, %.4f]\n",
		info.Spectral.Tmix, info.Spectral.Lambda2, info.Spectral.CheegerLo, info.Spectral.CheegerHi)

	// Submit a 10-trial batch, one point clean and one under a lossy
	// delivery plane.
	var sub struct {
		ID       string `json:"id"`
		Location string `json:"location"`
	}
	postInto(base+"/v1/elections", `{
		"seed": 42,
		"points": [
			{"graph": "rr64", "trials": 10},
			{"graph": "rr64", "trials": 10, "fault": {"drop": 0.05}}
		]
	}`, &sub)
	fmt.Println("submitted", sub.ID)

	// Poll until done. The "result" object is deterministic in
	// (registry, request): resubmitting this job yields identical bytes.
	var st struct {
		State  string `json:"state"`
		Result *struct {
			Points []struct {
				Graph        string `json:"graph"`
				One          int    `json:"one"`
				Trials       int    `json:"trials"`
				UniqueLeader bool   `json:"unique_leader"`
				Messages     int64  `json:"messages"`
				Summaries    map[string]struct {
					Mean float64 `json:"mean"`
					CILo float64 `json:"ci_lo"`
					CIHi float64 `json:"ci_hi"`
				} `json:"summaries"`
			} `json:"points"`
		} `json:"result"`
		Error string `json:"error"`
	}
	for {
		get(base+sub.Location, &st)
		if st.State == "done" || st.State == "failed" {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if st.State != "done" {
		log.Fatalf("job failed: %s", st.Error)
	}
	for _, p := range st.Result.Points {
		r := p.Summaries["rounds"]
		fmt.Printf("point %-6s unique leader %d/%d (all: %v), %d msgs, rounds mean %.1f [%.1f, %.1f]\n",
			p.Graph, p.One, p.Trials, p.UniqueLeader, p.Messages, r.Mean, r.CILo, r.CIHi)
	}

	// Graceful exit: drain in-flight work, then close the listener.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		log.Fatal(err)
	}
	_ = httpSrv.Shutdown(ctx)
}

func post(url, body string) {
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		log.Fatalf("POST %s: %s", url, resp.Status)
	}
}

func postInto(url, body string, out interface{}) {
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		log.Fatalf("POST %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatal(err)
	}
}

func get(url string, out interface{}) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		log.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatal(err)
	}
}
