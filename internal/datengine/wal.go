// The learn journal: an append-only framelog write-ahead log of the
// active-learning loop's state, the persistence layer behind
// `hsdlearn -resume`. Records are appended and fsynced one at a time,
// so a SIGKILLed learning loop resumes from the last durable record;
// DESIGN.md "On-disk formats" has the layout and the crash mode.
//
// Record semantics (the idempotency contract, see DESIGN.md §17):
// every stage of the loop journals its outcome before the next stage
// may run, and replaying the record sequence reconstructs exactly which
// work remains. Candidate records are deduplicated by content
// fingerprint at ingest AND at replay, so at-least-once ingestion is
// safe; a batch record pins the selected fingerprints, so a resumed
// loop labels the same batch the crashed one chose; label and
// quarantine records are keyed by (batch, fingerprint), so a resumed
// labeling pass skips exactly the samples already durable; the shipped
// record is terminal for its batch.

package datengine

import (
	"fmt"

	"github.com/golitho/hsd/internal/framelog"
	"github.com/golitho/hsd/internal/layout"
)

// walFormat: the header frame carries gob(Meta), record frames
// gob(Record).
var walFormat = framelog.Format{Header: "HSDLWh1\n", Record: "HSDLWr1\n"}

// Meta binds a WAL to one learning loop. The detector identity must
// match for a resume to be sound: candidates mined under one detector
// family are not interchangeable training signal for another.
type Meta struct {
	Detector string
}

// RecordKind discriminates the journaled stage outcomes.
type RecordKind uint8

const (
	// RecCandidate is one mined clip entering the candidate queue.
	RecCandidate RecordKind = iota + 1
	// RecBatch pins a selected batch: its ID and member fingerprints in
	// selection order.
	RecBatch
	// RecLabel is one oracle verdict for a batch member.
	RecLabel
	// RecQuarantine marks a batch member the oracle could not label
	// after its attempt budget; the sample is permanently excluded.
	RecQuarantine
	// RecShipped is the terminal record of a batch: the retrained model
	// was shipped through the gate, or rejected by it.
	RecShipped
)

// String implements fmt.Stringer.
func (k RecordKind) String() string {
	switch k {
	case RecCandidate:
		return "candidate"
	case RecBatch:
		return "batch"
	case RecLabel:
		return "label"
	case RecQuarantine:
		return "quarantine"
	case RecShipped:
		return "shipped"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Batch terminal outcomes recorded in RecShipped.
const (
	// OutcomeShipped means the retrained model passed the golden-set
	// gate and was installed.
	OutcomeShipped = "shipped"
	// OutcomeRejected means the gate (or an empty labeled set) refused
	// the batch; its candidates stay consumed and the loop moves on.
	OutcomeRejected = "rejected"
)

// Record is one journaled event. A single struct covers every kind so
// the gob stream stays self-describing; unused fields are zero.
type Record struct {
	Kind RecordKind

	// Candidate / Label / Quarantine: the member's content fingerprint.
	FP layout.Fingerprint
	// Candidate: the canonical (origin-translated) clip and the mining
	// context that surfaced it.
	Clip   layout.Clip
	Score  float64
	Stage  string
	Source string

	// Batch / Label / Quarantine / Shipped: the owning batch.
	BatchID int
	// Batch: member fingerprints in selection order.
	FPs []layout.Fingerprint

	// Label: the oracle verdict.
	Hotspot bool

	// Quarantine: attempts burned and the last failure.
	Attempts int
	Err      string

	// Shipped: terminal outcome, the model artifact, and the gate's
	// reasoning when rejected.
	Outcome   string
	ModelPath string
	Reason    string
}

// WAL is an open, appendable learn journal. Append is safe for
// concurrent use and returns only after the record is fsynced.
type WAL = framelog.Log[Record]

// CreateWAL creates (truncating) a WAL at path and durably writes its
// header frame.
func CreateWAL(path string, meta Meta) (*WAL, error) {
	return framelog.Create[Meta, Record](path, walFormat, meta)
}

// ResumeWAL loads the WAL at path, refuses it with
// framelog.ErrMetaMismatch unless its Meta equals meta, truncates any
// torn tail (WAL.Tail reports what was dropped), and re-opens it for
// appending. It returns the WAL and the intact records to replay.
func ResumeWAL(path string, meta Meta) (*WAL, []Record, error) {
	return framelog.Resume[Meta, Record](path, walFormat, meta)
}
