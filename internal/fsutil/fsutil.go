// Package fsutil provides the small crash-safe filesystem idioms the
// storage stack builds on: temp-file + fsync + atomic-rename writes and
// directory syncs. A file written through WriteFileAtomic is either absent
// (or its previous version) or complete — a crash can never surface a torn
// file, which is the invariant the LSM component and checkpoint formats
// rely on instead of checksumming their own contents.
package fsutil

import (
	"fmt"
	"os"
	"path/filepath"

	"asterixdb/internal/crashpoint"
)

// TmpSuffix is the suffix of in-progress files written by WriteFileAtomic.
// Crash recovery deletes leftovers matching it.
const TmpSuffix = ".tmp"

// WriteFileAtomic writes data to path via a temp file in the same directory:
// write + fsync the temp file, rename over path, fsync the directory. The
// temp name is deterministic (path + ".tmp"), so a crash leaves at most one
// leftover per target, removable by a "*.tmp" cleanup sweep.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	f, err := CreateAtomic(path, perm)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Abort()
		return err
	}
	return f.Commit()
}

// AtomicFile is a file written piece by piece as WriteFileAtomic writes it
// whole: into path + ".tmp", then fsync'd and renamed over path by Commit.
// Until Commit, path is untouched.
type AtomicFile struct {
	f         *os.File
	path, tmp string
}

// CreateAtomic starts an atomic write of path.
func CreateAtomic(path string, perm os.FileMode) (*AtomicFile, error) {
	tmp := path + TmpSuffix
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, perm)
	if err != nil {
		return nil, fmt.Errorf("fsutil: write %s: %w", path, err)
	}
	return &AtomicFile{f: f, path: path, tmp: tmp}, nil
}

// Write appends p to the temp file.
func (a *AtomicFile) Write(p []byte) (int, error) {
	n, err := a.f.Write(p)
	if err != nil {
		err = fmt.Errorf("fsutil: write %s: %w", a.path, err)
	}
	return n, err
}

// Abort gives the write up and removes the temp file.
func (a *AtomicFile) Abort() {
	a.f.Close()
	os.Remove(a.tmp)
}

// Commit fsyncs the temp file, renames it over path and fsyncs the
// directory. On an error the temp file is removed and path is untouched.
func (a *AtomicFile) Commit() error {
	crashpoint.Hit("fsutil-temp-written")
	if err := a.f.Sync(); err != nil {
		a.Abort()
		return fmt.Errorf("fsutil: sync %s: %w", a.path, err)
	}
	if err := a.f.Close(); err != nil {
		os.Remove(a.tmp)
		return fmt.Errorf("fsutil: close %s: %w", a.path, err)
	}
	if err := os.Rename(a.tmp, a.path); err != nil {
		os.Remove(a.tmp)
		return fmt.Errorf("fsutil: rename %s: %w", a.path, err)
	}
	crashpoint.Hit("fsutil-renamed")
	return SyncDir(filepath.Dir(a.path))
}

// SyncDir fsyncs a directory so a preceding rename/creation in it is durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("fsutil: sync dir %s: %w", dir, err)
	}
	syncErr := d.Sync()
	closeErr := d.Close()
	if syncErr != nil {
		return fmt.Errorf("fsutil: sync dir %s: %w", dir, syncErr)
	}
	if closeErr != nil {
		return fmt.Errorf("fsutil: sync dir %s: %w", dir, closeErr)
	}
	return nil
}

// RemoveTempFiles deletes "*.tmp" leftovers under dir (non-recursive):
// residue of WriteFileAtomic calls interrupted before their rename.
func RemoveTempFiles(dir string) error {
	names, err := filepath.Glob(filepath.Join(dir, "*"+TmpSuffix))
	if err != nil {
		return err
	}
	for _, name := range names {
		if err := os.Remove(name); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return nil
}
