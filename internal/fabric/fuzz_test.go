package fabric

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzJournalReplay feeds OpenJournal a valid header followed by
// arbitrary bytes. It must never panic or reject the journal, every
// readmitted cell must be in range and name its own unit's bug and
// tool, and reopening the file it truncated must readmit the same map.
// The checked-in corpus holds a clean journal, a torn tail and the
// bodyless lines {}, null and {"seq":2}.
func FuzzJournalReplay(f *testing.F) {
	job := smallJob(f)
	hdr, err := json.Marshal(journalHeader{Fingerprint: job.Fingerprint(), Cells: job.Cells()})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		path := filepath.Join(t.TempDir(), "journal.jsonl")
		if err := os.WriteFile(path, append(append(hdr[:len(hdr):len(hdr)], '\n'), body...), 0o644); err != nil {
			t.Fatal(err)
		}
		j, done, err := OpenJournal(path, job)
		if err != nil {
			t.Fatalf("journal with a valid header rejected: %v", err)
		}
		j.Close()
		for seq, cell := range done {
			u, err := job.Unit(seq)
			if err != nil {
				t.Fatalf("readmitted out-of-range seq %d", seq)
			}
			if cell.Bug != u.Bug || cell.Tool != u.Tool {
				t.Fatalf("seq %d readmitted cell %s/%s, unit is %s/%s", seq, cell.Bug, cell.Tool, u.Bug, u.Tool)
			}
		}
		j2, again, err := OpenJournal(path, job)
		if err != nil {
			t.Fatalf("reopening the truncated journal: %v", err)
		}
		j2.Close()
		if !reflect.DeepEqual(done, again) {
			t.Fatalf("reopen readmitted %v, first open %v", again, done)
		}
	})
}
