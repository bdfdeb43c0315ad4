package durable

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestFailedWriteKeepsPreviousContent: a write that fails before the
// rename leaves the old file intact and no temporary file behind.
func TestFailedWriteKeepsPreviousContent(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rec.json")
	if err := WriteFile(path, []byte("old")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk on fire")
	syncFile = func(*os.File) error { return boom }
	defer func() { syncFile = (*os.File).Sync }()
	if err := WriteFile(path, []byte("new")); !errors.Is(err, boom) {
		t.Fatalf("WriteFile error = %v, want %v", err, boom)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "old" {
		t.Fatalf("failed write changed the content to %q", got)
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp*")); len(tmps) != 0 {
		t.Fatalf("failed write left temporary files %v", tmps)
	}
}
