// State replay: folding the WAL's record sequence into the loop's
// in-memory position. Replay is a pure function of the record list, so
// two processes that read the same durable prefix reach the same state
// — the property the kill-resume guarantee rests on.

package datengine

import (
	"bytes"
	"sort"

	"github.com/golitho/hsd/internal/layout"
)

// Candidate is one mined clip in the queue.
type Candidate struct {
	FP     layout.Fingerprint
	Clip   layout.Clip // canonical (origin-translated) form
	Score  float64
	Stage  string
	Source string
}

// QuarantineInfo records why a batch member was given up on.
type QuarantineInfo struct {
	Attempts int
	Err      string
}

// BatchState is a selected batch that has not reached its terminal
// shipped record.
type BatchState struct {
	ID int
	// FPs are the member fingerprints in selection order; training
	// consumes labeled members in this order, so the retrained model is
	// a function of the batch record, not of labeling concurrency.
	FPs         []layout.Fingerprint
	Labels      map[layout.Fingerprint]bool
	Quarantined map[layout.Fingerprint]QuarantineInfo
}

// newBatchState builds an empty BatchState over fps.
func newBatchState(id int, fps []layout.Fingerprint) *BatchState {
	return &BatchState{
		ID:          id,
		FPs:         append([]layout.Fingerprint(nil), fps...),
		Labels:      make(map[layout.Fingerprint]bool),
		Quarantined: make(map[layout.Fingerprint]QuarantineInfo),
	}
}

// Remaining returns the batch members with neither a label nor a
// quarantine record, in selection order.
func (b *BatchState) Remaining() []layout.Fingerprint {
	var out []layout.Fingerprint
	for _, fp := range b.FPs {
		if _, ok := b.Labels[fp]; ok {
			continue
		}
		if _, ok := b.Quarantined[fp]; ok {
			continue
		}
		out = append(out, fp)
	}
	return out
}

// State is the replayed loop position.
type State struct {
	// Candidates holds every journaled candidate keyed by fingerprint.
	Candidates map[layout.Fingerprint]Candidate
	// Consumed maps fingerprints already claimed by a batch to that
	// batch's ID; consumed candidates are never re-selected.
	Consumed map[layout.Fingerprint]int
	// Pending is the selected batch awaiting its terminal record, nil
	// when the loop is between batches.
	Pending *BatchState
	// NextBatchID is the ID the next selection will use.
	NextBatchID int
	// Shipped and Rejected count terminal batch outcomes.
	Shipped, Rejected int
	// LastModel is the model path of the most recent shipped batch.
	LastModel string
}

// NewState returns an empty State.
func NewState() *State {
	return &State{
		Candidates: make(map[layout.Fingerprint]Candidate),
		Consumed:   make(map[layout.Fingerprint]int),
	}
}

// Replay folds records (in append order) into a State. Unknown record
// kinds and records that reference a batch other than the pending one
// are skipped: the WAL is append-only and written by this package, so
// anything unexpected is a forward-compatibility artifact, not a reason
// to refuse resume.
func Replay(records []Record) *State {
	s := NewState()
	for _, rec := range records {
		switch rec.Kind {
		case RecCandidate:
			if _, ok := s.Candidates[rec.FP]; ok {
				continue // at-least-once ingest: later duplicates lose
			}
			s.Candidates[rec.FP] = Candidate{
				FP: rec.FP, Clip: rec.Clip,
				Score: rec.Score, Stage: rec.Stage, Source: rec.Source,
			}
		case RecBatch:
			s.Pending = newBatchState(rec.BatchID, rec.FPs)
			for _, fp := range rec.FPs {
				s.Consumed[fp] = rec.BatchID
			}
			if rec.BatchID >= s.NextBatchID {
				s.NextBatchID = rec.BatchID + 1
			}
		case RecLabel:
			if s.Pending != nil && s.Pending.ID == rec.BatchID {
				s.Pending.Labels[rec.FP] = rec.Hotspot
			}
		case RecQuarantine:
			if s.Pending != nil && s.Pending.ID == rec.BatchID {
				s.Pending.Quarantined[rec.FP] = QuarantineInfo{Attempts: rec.Attempts, Err: rec.Err}
			}
		case RecShipped:
			if s.Pending != nil && s.Pending.ID == rec.BatchID {
				s.Pending = nil
			}
			if rec.Outcome == OutcomeShipped {
				s.Shipped++
				s.LastModel = rec.ModelPath
			} else {
				s.Rejected++
			}
		}
	}
	return s
}

// Available returns the unconsumed candidates sorted by fingerprint; a
// batch is its first Config.BatchSize entries. Sorting by content hash
// makes the selection a function of the candidate *set*: concurrent
// mining can append candidates in any order without perturbing which
// batch a resume selects.
func (s *State) Available() []Candidate {
	out := make([]Candidate, 0, len(s.Candidates))
	for fp, c := range s.Candidates {
		if _, ok := s.Consumed[fp]; ok {
			continue
		}
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		return bytes.Compare(out[i].FP[:], out[j].FP[:]) < 0
	})
	return out
}
