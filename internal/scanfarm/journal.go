// The scan journal: an append-only framelog of completed and quarantined
// shards, the persistence layer behind `hsdscan -resume`. Records are
// appended and fsynced one at a time, so a SIGKILLed scan resumes from
// the last durable shard; DESIGN.md "On-disk formats" has the layout
// and the crash mode.

package scanfarm

import (
	"fmt"

	"github.com/golitho/hsd/internal/core"
	"github.com/golitho/hsd/internal/framelog"
	"github.com/golitho/hsd/internal/geom"
)

// journalFormat: the header frame carries gob(Meta), record frames
// gob(ShardRecord).
var journalFormat = framelog.Format{Header: "HSDSJh1\n", Record: "HSDSJr1\n"}

// Meta binds a journal to one specific scan. Every field must match for
// a resume to be sound: a different chip, window geometry, or shard
// layout would make recorded shard IDs meaningless.
type Meta struct {
	Chip      string
	Shapes    int
	Bounds    geom.Rect
	ClipNM    int
	CoreFrac  float64
	StrideNM  int
	ShardRows int
	NumShards int
	SkipEmpty bool
	Detector  string
}

// ShardState is the terminal state of a journaled shard.
type ShardState uint8

const (
	// ShardDone is a fully scanned shard with its findings recorded.
	ShardDone ShardState = iota + 1
	// ShardQuarantined is a poison shard that exhausted its attempts;
	// its findings are unknown and Err records the last failure.
	ShardQuarantined
)

// String implements fmt.Stringer.
func (s ShardState) String() string {
	switch s {
	case ShardDone:
		return "done"
	case ShardQuarantined:
		return "quarantined"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// ShardRecord is one journaled shard outcome.
type ShardRecord struct {
	ShardID  int
	State    ShardState
	Attempts int
	// Err is the last failure message of a quarantined shard.
	Err string
	// Findings are the shard's flagged windows in window-enumeration
	// order (row-major within the shard). Empty for quarantined shards.
	Findings []core.Finding
}

// ErrJournalMismatch is returned when a journal's Meta does not match
// the scan being resumed.
var ErrJournalMismatch = framelog.ErrMetaMismatch

// Journal is an open, appendable scan journal. Append is safe for
// concurrent use and returns only after the record is fsynced.
type Journal = framelog.Log[ShardRecord]

// CreateJournal creates (truncating) a journal at path and durably
// writes its header frame.
func CreateJournal(path string, meta Meta) (*Journal, error) {
	return framelog.Create[Meta, ShardRecord](path, journalFormat, meta)
}

// ResumeJournal loads the journal at path, validates it against meta,
// truncates any torn tail (Journal.Tail reports what was dropped), and
// re-opens it for appending. It returns the journal and the intact
// shard records to skip, keyed by shard ID.
func ResumeJournal(path string, meta Meta) (*Journal, map[int]ShardRecord, error) {
	j, records, err := framelog.Resume[Meta, ShardRecord](path, journalFormat, meta)
	if err != nil {
		return nil, nil, err
	}
	completed := make(map[int]ShardRecord, len(records))
	for _, rec := range records {
		completed[rec.ShardID] = rec
	}
	return j, completed, nil
}
