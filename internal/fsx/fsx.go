// Package fsx holds the small filesystem primitives the durability story
// leans on. The one that matters is RenameAndSyncDir: a temp-file +
// rename is only atomic, not durable — after a power failure the rename
// itself can be rolled back unless the parent directory entry is fsynced.
// Every persistence path in the tree (seqdb manifest, the flat index's
// image, WAL creation, shipped replica snapshots) funnels
// through this package so new files inherit the fix automatically.
package fsx

import (
	"os"
	"path/filepath"
	"strings"
)

// SyncDirHook, when non-nil, is consulted by SyncDir before the real
// directory fsync and its error (if any) is returned in place of the
// syscall's. It exists for fault-injection tests that must prove a
// failed directory sync surfaces to the caller instead of being
// swallowed. Production code never sets it.
var SyncDirHook func(dir string) error

// SyncDir fsyncs a directory, making previously-renamed or created
// entries in it durable. POSIX requires an fsync on the containing
// directory before a rename is guaranteed to survive a crash; syncing
// the file alone is not enough.
func SyncDir(dir string) error {
	if hook := SyncDirHook; hook != nil {
		if err := hook(dir); err != nil {
			return err
		}
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}

// RenameAndSyncDir renames oldpath onto newpath and then fsyncs
// newpath's parent directory, so the rename — not just the file bytes —
// survives a power failure. Callers are expected to have already synced
// the file contents at oldpath.
func RenameAndSyncDir(oldpath, newpath string) error {
	if err := os.Rename(oldpath, newpath); err != nil {
		return err
	}
	return SyncDir(filepath.Dir(newpath))
}

// tempInfix sits between the destination's name and CreateTemp's random
// decimal suffix in every temp file WriteFileSync creates.
const tempInfix = ".tmp-"

// WriteFileSync writes data to path via a same-directory temp file:
// write, fsync the file, rename into place, fsync the directory. The
// destination either keeps its old contents or holds exactly data, and
// once WriteFileSync returns nil the new contents survive a crash.
func WriteFileSync(path string, data []byte, perm os.FileMode) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+tempInfix+"*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	cleanup := func() {
		tmp.Close()
		os.Remove(tmpName)
	}
	if _, err := tmp.Write(data); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Chmod(perm); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := RenameAndSyncDir(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return nil
}

// RemoveStaleTemps deletes the regular files directly in dir that carry
// WriteFileSync's temp naming (<name>.tmp-<digits>) and returns their names.
// A process killed between CreateTemp and the rename leaves such a file
// behind — up to a whole snapshot — and no later write reuses its name, so
// the directory's owner calls this when it opens the directory, before it
// writes anything itself.
func RemoveStaleTemps(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var removed []string
	for _, e := range entries {
		name := e.Name()
		i := strings.LastIndex(name, tempInfix)
		if i <= 0 || !e.Type().IsRegular() {
			continue
		}
		suffix := name[i+len(tempInfix):]
		if suffix == "" || strings.Trim(suffix, "0123456789") != "" {
			continue
		}
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			return removed, err
		}
		removed = append(removed, name)
	}
	return removed, nil
}
