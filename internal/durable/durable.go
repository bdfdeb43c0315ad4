// Package durable holds the one crash-safe file write that checkpoints
// and the result store share.
package durable

import (
	"os"
	"path/filepath"
)

// syncFile flushes a file to stable storage; a variable so tests can
// make the write fail after the data reached the temporary file.
var syncFile = (*os.File).Sync

// WriteFile replaces path with data so that a crash leaves either the
// old content or the new, never a torn mix: the bytes go to a temporary
// file in the same directory, which is fsynced and renamed over path,
// and then the directory is fsynced so the rename itself is durable.  On
// error the temporary file is removed and path keeps its previous
// content.
func WriteFile(path string, data []byte) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			os.Remove(tmp.Name())
		}
	}()
	if _, err = tmp.Write(data); err == nil {
		err = syncFile(tmp)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return syncFile(d)
}
