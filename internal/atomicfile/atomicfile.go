// Package atomicfile replaces files all-or-nothing. It is the one
// durable-write path of the repository: the omegad file store writes
// its job records, results and dataset blobs through it.
package atomicfile

import (
	"io"
	"os"
	"path/filepath"
)

// Write creates or replaces path with the bytes write produces, so that
// a reader — or a restart after a crash or power loss — sees either the
// previous file (or its absence) or the complete new one, never a torn
// write. The bytes go to a temporary ".<name>.tmp*" file in the same
// directory, which is fsynced, closed and renamed over path; the
// directory is then fsynced so the rename itself is durable before
// Write returns. On any error before the rename the temporary file is
// removed and path is untouched.
func Write(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory, persisting the entries renamed into it.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
