// The scan journal: an append-only framelog of completed and quarantined
// shards, the persistence layer behind `hsdscan -resume`. Run's
// committer appends finished shards' records in groups by age, each
// group with one fsync: the run's first group at once, then all that is
// pending once the oldest of it is commitAge old, and the rest when the
// run ends. Run returns only once every shard it counted as completed
// is durable. A SIGKILLed scan resumes from the last durable group, so
// a kill loses at most commitAge of finished shards, which are
// rescanned on resume. A record is framed by its hand-written encoder
// (ShardRecord.AppendPayload), which writes the codec's bytes.
// DESIGN.md "On-disk formats" has the layout and the crash mode.

package scanfarm

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/golitho/hsd/internal/core"
	"github.com/golitho/hsd/internal/framelog"
	"github.com/golitho/hsd/internal/geom"
)

// journalFormat: the header frame carries Meta, record frames
// ShardRecord.
var journalFormat = framelog.Format{Header: "HSDSJh2\n", Record: "HSDSJr2\n"}

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
	// ShardQuarantined is a poison shard whose scan failed; its findings
	// are unknown and Err records the failure.
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
	ShardID int
	State   ShardState
	// Attempts is 1: a shard is scanned once. The field stays so that
	// journal bytes do not change.
	Attempts int
	// Err is the failure message of a quarantined shard.
	Err string
	// Findings are the shard's flagged windows in window-enumeration
	// order (row-major within the shard). Empty for quarantined shards.
	Findings []core.Finding
}

// AppendPayload implements framelog.PayloadAppender: it appends the
// bytes framelog's codec writes for r, field by field in declaration
// order, without reflection. FuzzShardRecordPayload holds the two equal.
func (r *ShardRecord) AppendPayload(b []byte) []byte {
	b = binary.AppendVarint(b, int64(r.ShardID))
	b = binary.AppendUvarint(b, uint64(r.State))
	b = binary.AppendVarint(b, int64(r.Attempts))
	b = binary.AppendUvarint(b, uint64(len(r.Err)))
	b = append(b, r.Err...)
	b = binary.AppendUvarint(b, uint64(len(r.Findings)))
	for _, f := range r.Findings {
		b = binary.AppendVarint(b, int64(f.Center.X))
		b = binary.AppendVarint(b, int64(f.Center.Y))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f.Score))
	}
	return b
}

// ErrJournalMismatch is returned when a journal's Meta does not match
// the scan being resumed.
var ErrJournalMismatch = framelog.ErrMetaMismatch

// Journal is an open, appendable scan journal. Append is safe for
// concurrent use and returns only after every record it was given is
// fsynced.
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
