package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"cuttlego/internal/kclient"
	"cuttlego/internal/router"
	"cuttlego/internal/server"
)

// system is one in-process fleet: a ksimd daemon and a router in front of
// it, each on its own loopback listener, plus clients for both.
type system struct {
	srv    *server.Server
	rt     *router.Router
	hs     []*http.Server
	done   []chan error
	routed *kclient.Client // through the router: the path every workload uses
	direct *kclient.Client // straight to the daemon: for layer subtraction
}

// startSystem boots a daemon over storeDir with the native tier rooted at
// ncacheDir (promotion off), and a router over it. With tr non-nil, both
// handlers record spans and the clients propagate span ids.
func startSystem(storeDir, ncacheDir string, tr *tracer) (*system, error) {
	srv, err := server.New(server.Config{StoreDir: storeDir, NativeCacheDir: ncacheDir})
	if err != nil {
		return nil, err
	}
	sys := &system{srv: srv}
	var sh http.Handler = srv.Handler()
	if tr != nil {
		sh = tr.middleware("server", sh)
	}
	srvURL, err := sys.serve(sh)
	if err != nil {
		sys.close()
		return nil, err
	}
	// The router shares the daemon's store for its fork pins, as
	// `ksimd -router` does. The health sweep is never started: the single
	// backend stays up, and a once-a-second probe would only add noise.
	rt, err := router.New(router.Config{Backends: []string{srvURL}, StoreDir: storeDir, HealthInterval: time.Hour})
	if err != nil {
		sys.close()
		return nil, err
	}
	sys.rt = rt
	var rh http.Handler = rt.Handler()
	if tr != nil {
		rh = tr.middleware("router", rh)
	}
	rtURL, err := sys.serve(rh)
	if err != nil {
		sys.close()
		return nil, err
	}
	var rtp http.RoundTripper = http.DefaultTransport.(*http.Transport).Clone()
	if tr != nil {
		rtp = clientTransport{next: rtp}
	}
	sys.routed = kclient.NewWithOptions(rtURL, kclient.Options{Transport: rtp})
	sys.direct = kclient.NewWithOptions(srvURL, kclient.Options{Transport: rtp})
	return sys, nil
}

func (sys *system) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	sys.hs = append(sys.hs, hs)
	sys.done = append(sys.done, done)
	return "http://" + ln.Addr().String(), nil
}

// close stops the listeners (router first), waits for their serve loops,
// and retires the daemon, which reaps every simulator subprocess.
func (sys *system) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var errs []error
	for i := len(sys.hs) - 1; i >= 0; i-- {
		if err := sys.hs[i].Shutdown(ctx); err != nil {
			errs = append(errs, err)
		}
		if err := <-sys.done[i]; err != nil && !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if sys.rt != nil {
		sys.rt.Close()
	}
	if err := sys.srv.Close(); err != nil {
		errs = append(errs, fmt.Errorf("daemon close: %w", err))
	}
	return errors.Join(errs...)
}
