package wal

import (
	"io"
	"os"
)

// OS is the real file system.
type OS struct{}

func (OS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (OS) OpenAppend(name string) (File, error) {
	f, err := os.OpenFile(name, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (OS) Create(name string) (File, error) {
	f, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (OS) Open(name string) (io.ReadCloser, error) { return os.Open(name) }

func (OS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

func (OS) Remove(name string) error { return os.Remove(name) }

func (OS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

func (OS) ReadDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names, nil
}

func (OS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	if cerr := d.Close(); serr == nil {
		serr = cerr
	}
	return serr
}
