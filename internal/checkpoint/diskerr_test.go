package checkpoint

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"moe/internal/atomicio"
)

// Filesystem failures must surface as *DiskError so a multi-tenant host can
// degrade the affected tenant to journal-less serving instead of refusing
// it; content mismatches must not, so hosts cannot mistake a wrong lineage
// for a full disk.

func TestOpenOnUnwritablePathIsDiskError(t *testing.T) {
	// A regular file where the store directory should be: MkdirAll fails
	// with ENOTDIR regardless of privilege (a chmod-based read-only dir
	// would not stop root, which CI containers run as).
	dir := t.TempDir()
	blocked := filepath.Join(dir, "occupied")
	if err := os.WriteFile(blocked, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{blocked, filepath.Join(blocked, "tenant-1")} {
		_, err := Open(path)
		if err == nil {
			t.Fatalf("Open(%q) on an occupied path must fail", path)
		}
		if !IsDiskError(err) {
			t.Errorf("Open(%q): %v is not a DiskError", path, err)
		}
	}
}

func TestFailingSnapshotWriteIsDiskError(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	// Inject an ENOSPC-style failure at the write stage of the snapshot's
	// atomic replace; the injected cause must stay reachable through the
	// typed wrapper.
	cause := fmt.Errorf("injected: %w", errors.New("no space left on device"))
	store.SetSnapshotFault(func(stage atomicio.Stage) error {
		if stage == atomicio.StageWrite {
			return cause
		}
		return nil
	})
	err = store.WriteSnapshot(testState(t, 3))
	if err == nil {
		t.Fatal("snapshot write with injected fault must fail")
	}
	var de *DiskError
	if !errors.As(err, &de) {
		t.Fatalf("snapshot failure %v is not a DiskError", err)
	}
	if de.Op != "snapshot" {
		t.Errorf("op = %q, want snapshot", de.Op)
	}
	if !errors.Is(err, cause) {
		t.Error("injected cause must stay reachable through the DiskError")
	}

	// The store recovers once the disk does: clearing the fault, the same
	// snapshot lands and a journal epoch opens.
	store.SetSnapshotFault(nil)
	if err := store.WriteSnapshot(testState(t, 3)); err != nil {
		t.Fatalf("snapshot after fault cleared: %v", err)
	}
	if err := store.Append(testObservations(1, 0)[0]); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
}

func TestFailingAppendIsDiskError(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := store.WriteSnapshot(testState(t, 3)); err != nil {
		t.Fatal(err)
	}
	// Close the journal's file descriptor out from under the store: the
	// next append's write fails like it would on a dying disk.
	if err := store.journal.Close(); err != nil {
		t.Fatal(err)
	}
	err = store.Append(testObservations(1, 0)[0])
	if err == nil {
		t.Fatal("append to a closed journal must fail")
	}
	if !IsDiskError(err) {
		t.Errorf("append failure %v is not a DiskError", err)
	}
	store.journal = nil // already closed
}

// TestFailingRotationIsDiskError: a snapshot's journal rotation that cannot
// sync and close the old journal is a filesystem failure, and must say so —
// a host latches a tenant degraded only on a DiskError, so a bare error here
// would leave a tenant that has stopped journaling reported as persistent.
func TestFailingRotationIsDiskError(t *testing.T) {
	store, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := store.WriteSnapshot(testState(t, 3)); err != nil {
		t.Fatal(err)
	}
	old := store.journal.Name()
	// Close the journal out from under the store: the rotation's sync of
	// the old journal fails like it would on a dying disk.
	if err := store.journal.Close(); err != nil {
		t.Fatal(err)
	}
	err = store.WriteSnapshot(testState(t, 5))
	if err == nil {
		t.Fatal("rotation over a closed journal must fail")
	}
	var de *DiskError
	if !errors.As(err, &de) {
		t.Fatalf("rotation failure %v is not a DiskError", err)
	}
	if de.Op != "rotate" || de.Path != old {
		t.Errorf("op %q path %q, want rotate %q", de.Op, de.Path, old)
	}
}

func TestContentMismatchIsNotDiskError(t *testing.T) {
	// Corrupt contents and wrong-policy states are the caller's problem,
	// not the disk's; classifying them as disk failures would let a host
	// "degrade" around holding the wrong lineage.
	if _, _, err := DecodeSnapshot([]byte("garbage that is not a snapshot")); err == nil {
		t.Fatal("garbage must not decode")
	} else if IsDiskError(err) {
		t.Errorf("decode failure %v must not be a DiskError", err)
	}
	if err := RestorePolicy(newMixture(t), PolicyState{Kind: PolicyStateless}); err == nil {
		t.Fatal("kind mismatch must fail")
	} else if IsDiskError(err) {
		t.Errorf("kind mismatch %v must not be a DiskError", err)
	}
}
