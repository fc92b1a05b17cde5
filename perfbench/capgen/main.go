// Command capgen records the benchmark's large native capture: a
// runtime/trace window of a worker-pool service with a planted, counted
// set of stranded goroutines. The strand count is fixed by construction
// (one abandoned reply sender per plantEvery requests), so the
// native-ingest workload checks ingest's stranded-goroutine analysis
// against a number that does not come from ingest itself.
//
// Regenerate the checked-in capture and its answer file with
//
//	cd perfbench && go run -trimpath ./capgen -o data/bigpool.trace -answer data/bigpool.json
//
// -trimpath keeps build-machine paths out of the capture's stack tables.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/trace"
	"sync"
	"time"
)

const (
	workers    = 4
	requests   = 3600
	plantEvery = 120 // one stranded reply sender per this many requests
	strands    = requests / plantEvery
)

// serve is the long-lived pool: each request takes the shared lock,
// hands its reply to a per-request sender goroutine and waits for it.
// Every plantEvery-th request abandons its reply channel, stranding the
// sender on its send for good.
func serve(jobs <-chan int, mu *sync.Mutex, total *int, wg *sync.WaitGroup) {
	defer wg.Done()
	for j := range jobs {
		mu.Lock()
		*total += j
		mu.Unlock()
		reply := make(chan int)
		go func(v int) {
			reply <- v * v // strands when the handler abandons reply
		}(j)
		if j%plantEvery == plantEvery-1 {
			continue // planted leak: nobody receives this reply
		}
		<-reply
	}
}

func run() (int, error) {
	jobs := make(chan int)
	var (
		mu    sync.Mutex
		total int
		wg    sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go serve(jobs, &mu, &total, &wg)
	}
	for i := 0; i < requests; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	// Let the stranded senders sit parked before the window closes.
	time.Sleep(100 * time.Millisecond)
	return total, nil
}

func main() {
	out := flag.String("o", "bigpool.trace", "capture file to write")
	answer := flag.String("answer", "bigpool.json", "answer file to write")
	flag.Parse()
	if err := record(*out, *answer); err != nil {
		fmt.Fprintln(os.Stderr, "capgen:", err)
		os.Exit(1)
	}
}

func record(out, answer string) error {
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := trace.Start(f); err != nil {
		f.Close()
		return err
	}
	_, runErr := run()
	trace.Stop()
	if err := f.Close(); err != nil {
		return err
	}
	if runErr != nil {
		return runErr
	}
	b, err := json.MarshalIndent(map[string]any{
		"capture":  "bigpool.trace",
		"stranded": strands,
		"requests": requests,
		"workers":  workers,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(answer, append(b, '\n'), 0o644)
}
