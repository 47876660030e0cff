package atomicfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// dirNames lists a directory's entries.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

func TestWriteReplacesFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rec.json")
	for _, body := range []string{"first", "second, longer"} {
		if err := Write(path, func(w io.Writer) error {
			_, err := io.WriteString(w, body)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != body {
			t.Errorf("file holds %q, want %q", got, body)
		}
	}
	if names := dirNames(t, dir); len(names) != 1 || names[0] != "rec.json" {
		t.Errorf("directory holds %v, want only rec.json", names)
	}
}

// TestWriteFailureLeavesNoTrace: a writer that fails part-way leaves
// neither a temporary file nor a torn target — an absent target stays
// absent, an existing one keeps its previous bytes.
func TestWriteFailureLeavesNoTrace(t *testing.T) {
	boom := errors.New("disk full")
	torn := func(w io.Writer) error {
		if _, err := io.WriteString(w, "half a rec"); err != nil {
			return err
		}
		return boom
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "rec.json")

	if err := Write(path, torn); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the writer's error", err)
	}
	if names := dirNames(t, dir); len(names) != 0 {
		t.Errorf("failed first write left %v", names)
	}

	if err := os.WriteFile(path, []byte("intact"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Write(path, torn); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the writer's error", err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "intact" {
		t.Errorf("target after failed replace = %q, %v; want the previous bytes", got, err)
	}
	if names := dirNames(t, dir); len(names) != 1 || names[0] != "rec.json" {
		t.Errorf("failed replace left %v", names)
	}
}

func TestWriteMissingDirectory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "absent", "rec.json")
	if err := Write(path, func(io.Writer) error { return nil }); err == nil {
		t.Error("write into a missing directory succeeded")
	}
}
