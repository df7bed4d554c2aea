package segment

import (
	"fmt"
	"os"
	"path/filepath"
)

// Write persists d as a segment file at path, sidecar-atomically: the
// image is written to a temp file in the same directory, fsynced,
// renamed over path, and the directory is fsynced so the rename itself
// survives a crash. Readers therefore only ever observe either the old
// file or a complete, checksummed new one — never a torn write.
func Write(path string, d *Data) error {
	var offs [NumSections]int
	off := pageSize
	for i := 0; i < NumSections; i++ {
		offs[i] = off
		off += align(len(d.Sections[i]))
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("segment: create temp: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	write := func() error {
		if _, err := tmp.Write(encodeHeader(d, offs)); err != nil {
			return err
		}
		pos := pageSize
		pad := make([]byte, pageSize)
		for i := 0; i < NumSections; i++ {
			if _, err := tmp.Write(d.Sections[i]); err != nil {
				return err
			}
			pos += len(d.Sections[i])
			if rem := align(pos) - pos; rem > 0 {
				if _, err := tmp.Write(pad[:rem]); err != nil {
					return err
				}
				pos += rem
			}
		}
		return tmp.Sync()
	}
	if err := write(); err != nil {
		tmp.Close()
		return fmt.Errorf("segment: write %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("segment: close temp: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("segment: rename: %w", err)
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a just-completed rename is durable.
// Platforms where directories cannot be fsynced report success (the
// rename is still atomic, just not crash-ordered).
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer f.Close()
	if err := f.Sync(); err != nil {
		return nil
	}
	return nil
}
