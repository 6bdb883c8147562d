package main

import (
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/gateway"
	"repro/internal/netblock"
	"repro/internal/store"
)

// The deployed shape, with xorbasd's defaults: LRC(10,6,5) over 20
// block servers, 8 racks, 64 KiB blocks, a 256 MiB hot-block cache, a
// WAL-backed metadata plane, hedging off, a 2-worker repair manager.
const (
	clusterNodes = 20
	clusterRacks = 8
	blockSize    = 64 << 10
	cacheBytes   = 256 << 20
)

// cluster is the whole stack in one process: block servers each over
// their own DirBackend, a netblock.Client as the store backend, the
// store, the gateway, and an HTTP server on loopback.
type cluster struct {
	dir     string
	servers []*netblock.Server
	nb      *netblock.Client
	st      *store.Store
	gw      *gateway.Gateway
	rm      *store.RepairManager
	sc      *store.Scrubber
	srv     *http.Server
	served  chan error
	url     string
}

// boot starts a cluster rooted at dir. With a tracer, the gateway
// handler, the codec, the netblock client and every DirBackend are
// wrapped so calls into them are timed.
func boot(dir string, tr *tracer) (*cluster, error) {
	c := &cluster{dir: dir}
	if err := c.start(tr); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

func (c *cluster) start(tr *tracer) error {
	addrs := make([]string, clusterNodes)
	for i := range addrs {
		d, err := store.NewDirBackend(filepath.Join(c.dir, "blocks", fmt.Sprintf("server%02d", i)))
		if err != nil {
			return err
		}
		var be store.Backend = d
		if tr != nil {
			be = tracedDisk{d: d, t: tr}
		}
		srv, addr, err := netblock.StartLocal(be)
		if err != nil {
			return err
		}
		c.servers = append(c.servers, srv)
		addrs[i] = addr
	}
	var err error
	c.nb, err = netblock.Dial(addrs, netblock.Options{})
	if err != nil {
		return err
	}
	var be store.Backend = c.nb
	var codec store.Codec = store.NewXorbasCodec()
	if tr != nil {
		be = tracedClient{c: c.nb, t: tr}
		codec = tracedCodec{Codec: codec, t: tr}
	}
	c.st, err = store.New(store.Config{
		Codec:      codec,
		Backend:    be,
		Nodes:      clusterNodes,
		Racks:      clusterRacks,
		BlockSize:  blockSize,
		CacheBytes: cacheBytes,
		MetaDir:    filepath.Join(c.dir, "meta"),
	})
	if err != nil {
		return err
	}
	c.rm = store.NewRepairManager(c.st, 0)
	c.rm.Start()
	c.sc = store.NewScrubber(c.st, c.rm, 0)
	c.gw, err = gateway.New(gateway.Config{Store: c.st})
	if err != nil {
		return err
	}
	var h http.Handler = c.gw
	if tr != nil {
		h = tr.handler(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	c.srv = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	c.served = make(chan error, 1)
	go func() { c.served <- c.srv.Serve(ln) }()
	c.url = "http://" + ln.Addr().String()
	return nil
}

// close stops everything boot started, waits for it, and deletes the
// cluster's files.
func (c *cluster) close() error {
	var errs []error
	if c.srv != nil {
		errs = append(errs, c.srv.Close())
		if err := <-c.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if c.rm != nil {
		c.rm.Stop()
	}
	if c.st != nil {
		errs = append(errs, c.st.Close())
	}
	if c.nb != nil {
		errs = append(errs, c.nb.Close())
	}
	for _, s := range c.servers {
		errs = append(errs, s.Close())
	}
	errs = append(errs, removeFiles(c.dir))
	return errors.Join(errs...)
}

// removeFiles deletes every file under dir and keeps the directories:
// dir itself may be a mount point.
func removeFiles(dir string) error {
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		return os.Remove(path)
	})
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	return err
}

// blockBytes sums the sizes of the block files on every server: the
// bytes the cluster stores on disk, parity and frame headers included.
func (c *cluster) blockBytes() (int64, error) {
	var total int64
	err := filepath.WalkDir(filepath.Join(c.dir, "blocks"), func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
