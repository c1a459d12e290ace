// Package social implements a functional Social Network application in the
// shape of Figure 1 — the paper's motivating microservice workload — running
// end to end on the Dagger RPC stack. The tiers mirror the profiled subset
// of §3: an Nginx-like front-end, the ComposePost orchestrator, the
// UniqueID, Text, UserMention, UrlShorten, Media, and User services, a
// MICA-backed post storage, a memcached-backed user cache, and a timeline
// service — with the same one-to-many fan-outs and nested chains.
//
// Unlike internal/microsim (the queueing model behind Figures 3-5), this
// package really executes: posts are composed, text is parsed for mentions
// and URLs, URLs are shortened, posts land in storage, and timelines read
// them back — every hop an RPC over the fabric.
package social

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"dagger/internal/core"
	"dagger/internal/fabric"
	"dagger/internal/kvs/memcached"
	"dagger/internal/kvs/mica"
	"dagger/internal/wire"
)

// Tier fabric addresses.
const (
	AddrClient uint32 = iota + 1
	AddrNginx
	AddrComposePost
	AddrUniqueID
	AddrText
	AddrUserMention
	AddrUrlShorten
	AddrMedia
	AddrUser
	AddrPostStorage
	AddrTimeline
	AddrUserStorage // memcached
)

// Function IDs (per tier; tiers have disjoint NICs so ids may overlap, but
// unique ids keep traces readable).
const (
	FnComposePost uint16 = iota + 1
	FnReadTimeline
	FnUniqueID
	FnProcessText
	FnExtractMentions
	FnShortenURL
	FnProcessMedia
	FnGetUser
	FnStorePost
	FnGetPosts
)

// Post is a stored social-network post.
type Post struct {
	ID       uint64
	Author   string
	Text     string
	Mentions []string
	URLs     []string
	MediaIDs []uint64
}

func (p Post) encode() []byte {
	e := wire.NewEncoder(nil)
	e.Uint64(p.ID)
	e.String16(p.Author)
	e.String16(p.Text)
	e.Uint32(uint32(len(p.Mentions)))
	for _, m := range p.Mentions {
		e.String16(m)
	}
	e.Uint32(uint32(len(p.URLs)))
	for _, u := range p.URLs {
		e.String16(u)
	}
	e.Uint32(uint32(len(p.MediaIDs)))
	for _, id := range p.MediaIDs {
		e.Uint64(id)
	}
	return e.Bytes()
}

func decodePost(b []byte) (Post, error) {
	d := wire.NewDecoder(b)
	p := Post{ID: d.Uint64(), Author: d.String16(), Text: d.String16()}
	for n := d.Uint32(); n > 0; n-- {
		p.Mentions = append(p.Mentions, d.String16())
	}
	for n := d.Uint32(); n > 0; n-- {
		p.URLs = append(p.URLs, d.String16())
	}
	for n := d.Uint32(); n > 0; n-- {
		p.MediaIDs = append(p.MediaIDs, d.Uint64())
	}
	return p, d.Err()
}

// ComposeRequest is a front-end post-creation request.
type ComposeRequest struct {
	Author   string
	Text     string
	MediaIDs []uint64
}

func (r ComposeRequest) encode() []byte {
	e := wire.NewEncoder(nil)
	e.String16(r.Author)
	e.String16(r.Text)
	e.Uint32(uint32(len(r.MediaIDs)))
	for _, id := range r.MediaIDs {
		e.Uint64(id)
	}
	return e.Bytes()
}

func decodeComposeRequest(b []byte) (ComposeRequest, error) {
	d := wire.NewDecoder(b)
	r := ComposeRequest{Author: d.String16(), Text: d.String16()}
	for n := d.Uint32(); n > 0; n-- {
		r.MediaIDs = append(r.MediaIDs, d.Uint64())
	}
	return r, d.Err()
}

// Config tunes the deployment.
type Config struct {
	// Users pre-registers this many user accounts (default 64).
	Users int
}

const (
	flowsPerTier   = 2  // each tier NIC's flow count
	timelineLength = 32 // bound on a user's timeline
)

// App is a running Social Network deployment.
type App struct {
	Fabric *fabric.Fabric

	servers []*core.RpcThreadedServer
	pools   []*core.RpcClientPool
	nics    []*fabric.SoftNIC

	clientPool *core.RpcClientPool

	postStore *mica.Store      // post storage backend
	userCache *memcached.Store // user storage backend

	mu        sync.Mutex
	timelines map[string][]uint64 // author -> newest-first post ids
	shortURLs map[string]string

	nextPostID atomic.Uint64
	nextShort  atomic.Uint64

	// Counters.
	Composed atomic.Uint64
	Reads    atomic.Uint64
}

type tierClient struct {
	pool  *core.RpcClientPool
	conns map[uint32][]uint32
	rr    atomic.Uint32
}

// pick returns a client and its connection to dst, round-robin.
func (tc *tierClient) pick(dst uint32) (*core.RpcClient, uint32) {
	i := int(tc.rr.Add(1)-1) % tc.pool.Size()
	return tc.pool.Client(i), tc.conns[dst][i]
}

// New builds and starts all tiers.
func New(cfg Config) (*App, error) {
	if cfg.Users <= 0 {
		cfg.Users = 64
	}
	a := &App{
		Fabric:    fabric.NewFabric(),
		timelines: map[string][]uint64{},
		shortURLs: map[string]string{},
	}
	ok := false
	defer func() {
		if !ok {
			a.Close()
		}
	}()

	mkNIC := func(addr uint32) (*fabric.SoftNIC, error) {
		n, err := a.Fabric.CreateNIC(addr, flowsPerTier, fabric.DefaultRingDepth)
		if err != nil {
			return nil, err
		}
		a.nics = append(a.nics, n)
		return n, nil
	}
	mkServer := func(nic *fabric.SoftNIC, regs map[uint16]struct {
		name string
		h    core.Handler
	}) error {
		srv := core.NewRpcThreadedServer(nic, core.ServerConfig{})
		for fn, r := range regs {
			if err := srv.Register(fn, r.name, r.h); err != nil {
				return err
			}
		}
		if err := srv.Start(); err != nil {
			return err
		}
		a.servers = append(a.servers, srv)
		return nil
	}
	mkClients := func(nic *fabric.SoftNIC, dsts ...uint32) (*tierClient, error) {
		pool, err := core.NewRpcClientPool(nic, flowsPerTier)
		if err != nil {
			return nil, err
		}
		a.pools = append(a.pools, pool)
		tc := &tierClient{pool: pool, conns: map[uint32][]uint32{}}
		for _, d := range dsts {
			ids, err := pool.ConnectAll(d)
			if err != nil {
				return nil, err
			}
			tc.conns[d] = ids
		}
		return tc, nil
	}

	// --- Backends ---
	postNIC, err := mkNIC(AddrPostStorage)
	if err != nil {
		return nil, err
	}
	a.postStore = mica.NewStore(flowsPerTier, 1<<12, 1<<22)
	micaSrv, err := mica.Serve(postNIC, a.postStore, core.ServerConfig{})
	if err != nil {
		return nil, err
	}
	a.servers = append(a.servers, micaSrv)

	userStoreNIC, err := mkNIC(AddrUserStorage)
	if err != nil {
		return nil, err
	}
	a.userCache = memcached.New(8, 0)
	mcdSrv, err := memcached.Serve(userStoreNIC, a.userCache, core.ServerConfig{})
	if err != nil {
		return nil, err
	}
	a.servers = append(a.servers, mcdSrv)
	for i := 0; i < cfg.Users; i++ {
		name := fmt.Sprintf("user%d", i)
		a.userCache.Set("acct:"+name, []byte(name), 0)
	}

	// --- UniqueID ---
	uidNIC, err := mkNIC(AddrUniqueID)
	if err != nil {
		return nil, err
	}
	if err := mkServer(uidNIC, map[uint16]struct {
		name string
		h    core.Handler
	}{
		FnUniqueID: {"UniqueID.next", func(_ context.Context, req []byte) ([]byte, error) {
			e := wire.NewEncoder(nil)
			e.Uint64(a.nextPostID.Add(1))
			return e.Bytes(), nil
		}},
	}); err != nil {
		return nil, err
	}

	// --- UserMention ---
	umNIC, err := mkNIC(AddrUserMention)
	if err != nil {
		return nil, err
	}
	if err := mkServer(umNIC, map[uint16]struct {
		name string
		h    core.Handler
	}{
		FnExtractMentions: {"UserMention.extract", func(_ context.Context, req []byte) ([]byte, error) {
			d := wire.NewDecoder(req)
			text := d.String16()
			if err := d.Err(); err != nil {
				return nil, err
			}
			var mentions []string
			for _, w := range strings.Fields(text) {
				if strings.HasPrefix(w, "@") && len(w) > 1 {
					mentions = append(mentions, strings.TrimPrefix(strings.TrimRight(w, ".,!?"), "@"))
				}
			}
			e := wire.NewEncoder(nil)
			e.Uint32(uint32(len(mentions)))
			for _, m := range mentions {
				e.String16(m)
			}
			return e.Bytes(), nil
		}},
	}); err != nil {
		return nil, err
	}

	// --- UrlShorten ---
	usNIC, err := mkNIC(AddrUrlShorten)
	if err != nil {
		return nil, err
	}
	if err := mkServer(usNIC, map[uint16]struct {
		name string
		h    core.Handler
	}{
		FnShortenURL: {"UrlShorten.shorten", func(_ context.Context, req []byte) ([]byte, error) {
			d := wire.NewDecoder(req)
			url := d.String16()
			if err := d.Err(); err != nil {
				return nil, err
			}
			short := fmt.Sprintf("https://dg.gr/%x", a.nextShort.Add(1))
			a.mu.Lock()
			a.shortURLs[short] = url
			a.mu.Unlock()
			e := wire.NewEncoder(nil)
			e.String16(short)
			return e.Bytes(), nil
		}},
	}); err != nil {
		return nil, err
	}

	// --- Text: extracts mentions and URLs via nested RPCs ---
	textNIC, err := mkNIC(AddrText)
	if err != nil {
		return nil, err
	}
	textClients, err := mkClients(textNIC, AddrUserMention, AddrUrlShorten)
	if err != nil {
		return nil, err
	}
	if err := mkServer(textNIC, map[uint16]struct {
		name string
		h    core.Handler
	}{
		FnProcessText: {"Text.process", func(ctx context.Context, req []byte) ([]byte, error) {
			d := wire.NewDecoder(req)
			text := d.String16()
			if err := d.Err(); err != nil {
				return nil, err
			}
			// Nested: mentions from UserMention, short links from
			// UrlShorten (one call per URL — the one-to-many edge).
			cli, conn := textClients.pick(AddrUserMention)
			e := wire.NewEncoder(nil)
			e.String16(text)
			out, err := cli.CallConnContext(ctx, conn, FnExtractMentions, e.Bytes())
			if err != nil {
				return nil, fmt.Errorf("usermention: %w", err)
			}
			md := wire.NewDecoder(out)
			var mentions []string
			for n := md.Uint32(); n > 0; n-- {
				mentions = append(mentions, md.String16())
			}
			var shortened []string
			for _, w := range strings.Fields(text) {
				if strings.HasPrefix(w, "http://") || strings.HasPrefix(w, "https://") {
					cli, conn := textClients.pick(AddrUrlShorten)
					ue := wire.NewEncoder(nil)
					ue.String16(w)
					out, err := cli.CallConnContext(ctx, conn, FnShortenURL, ue.Bytes())
					if err != nil {
						return nil, fmt.Errorf("urlshorten: %w", err)
					}
					ud := wire.NewDecoder(out)
					shortened = append(shortened, ud.String16())
				}
			}
			e = wire.NewEncoder(nil)
			e.Uint32(uint32(len(mentions)))
			for _, m := range mentions {
				e.String16(m)
			}
			e.Uint32(uint32(len(shortened)))
			for _, u := range shortened {
				e.String16(u)
			}
			return e.Bytes(), nil
		}},
	}); err != nil {
		return nil, err
	}

	// --- Media ---
	mediaNIC, err := mkNIC(AddrMedia)
	if err != nil {
		return nil, err
	}
	if err := mkServer(mediaNIC, map[uint16]struct {
		name string
		h    core.Handler
	}{
		FnProcessMedia: {"Media.process", func(_ context.Context, req []byte) ([]byte, error) {
			d := wire.NewDecoder(req)
			n := d.Uint32()
			ids := make([]uint64, 0, n)
			for ; n > 0; n-- {
				ids = append(ids, d.Uint64())
			}
			if err := d.Err(); err != nil {
				return nil, err
			}
			e := wire.NewEncoder(nil)
			e.Uint32(uint32(len(ids)))
			for _, id := range ids {
				e.Uint64(id | 1<<63) // "transcoded" media handle
			}
			return e.Bytes(), nil
		}},
	}); err != nil {
		return nil, err
	}

	// --- User: validates accounts against the memcached-backed storage ---
	userNIC, err := mkNIC(AddrUser)
	if err != nil {
		return nil, err
	}
	userClients, err := mkClients(userNIC, AddrUserStorage)
	if err != nil {
		return nil, err
	}
	if err := mkServer(userNIC, map[uint16]struct {
		name string
		h    core.Handler
	}{
		FnGetUser: {"User.get", func(ctx context.Context, req []byte) ([]byte, error) {
			d := wire.NewDecoder(req)
			name := d.String16()
			if err := d.Err(); err != nil {
				return nil, err
			}
			cli, conn := userClients.pick(AddrUserStorage)
			mc := memcachedClientConn(cli, conn)
			_, err := mc.GetContext(ctx, "acct:"+name)
			e := wire.NewEncoder(nil)
			e.Bool(err == nil)
			return e.Bytes(), nil
		}},
	}); err != nil {
		return nil, err
	}

	// --- Timeline: reads posts back from post storage ---
	tlNIC, err := mkNIC(AddrTimeline)
	if err != nil {
		return nil, err
	}
	tlClients, err := mkClients(tlNIC, AddrPostStorage)
	if err != nil {
		return nil, err
	}
	if err := mkServer(tlNIC, map[uint16]struct {
		name string
		h    core.Handler
	}{
		FnGetPosts: {"Timeline.read", func(ctx context.Context, req []byte) ([]byte, error) {
			d := wire.NewDecoder(req)
			author := d.String16()
			limit := int(d.Uint32())
			if err := d.Err(); err != nil {
				return nil, err
			}
			a.mu.Lock()
			ids := append([]uint64(nil), a.timelines[author]...)
			a.mu.Unlock()
			if limit > 0 && len(ids) > limit {
				ids = ids[:limit]
			}
			e := wire.NewEncoder(nil)
			var blobs [][]byte
			for _, id := range ids {
				cli, conn := tlClients.pick(AddrPostStorage)
				mc := mica.NewClientConn(cli, conn)
				if raw, err := mc.GetContext(ctx, postKey(id)); err == nil {
					blobs = append(blobs, raw)
				}
			}
			e.Uint32(uint32(len(blobs)))
			for _, b := range blobs {
				e.Bytes16(b)
			}
			a.Reads.Add(1)
			return e.Bytes(), nil
		}},
	}); err != nil {
		return nil, err
	}

	// --- ComposePost orchestrator: the fan-out hub of Figure 1 ---
	cpNIC, err := mkNIC(AddrComposePost)
	if err != nil {
		return nil, err
	}
	cpClients, err := mkClients(cpNIC, AddrUniqueID, AddrText, AddrMedia, AddrUser, AddrPostStorage)
	if err != nil {
		return nil, err
	}
	if err := mkServer(cpNIC, map[uint16]struct {
		name string
		h    core.Handler
	}{
		FnComposePost: {"ComposePost.compose", func(ctx context.Context, req []byte) ([]byte, error) {
			cr, err := decodeComposeRequest(req)
			if err != nil {
				return nil, err
			}
			return a.composePost(ctx, cpClients, cr)
		}},
	}); err != nil {
		return nil, err
	}

	// --- Nginx front-end: routes compose and read requests ---
	nginxNIC, err := mkNIC(AddrNginx)
	if err != nil {
		return nil, err
	}
	feClients, err := mkClients(nginxNIC, AddrComposePost, AddrTimeline)
	if err != nil {
		return nil, err
	}
	if err := mkServer(nginxNIC, map[uint16]struct {
		name string
		h    core.Handler
	}{
		FnComposePost: {"nginx.compose", func(ctx context.Context, req []byte) ([]byte, error) {
			cli, conn := feClients.pick(AddrComposePost)
			return cli.CallConnContext(ctx, conn, FnComposePost, req)
		}},
		FnReadTimeline: {"nginx.read", func(ctx context.Context, req []byte) ([]byte, error) {
			cli, conn := feClients.pick(AddrTimeline)
			return cli.CallConnContext(ctx, conn, FnGetPosts, req)
		}},
	}); err != nil {
		return nil, err
	}

	// --- Client pool driving the front-end ---
	clientNIC, err := mkNIC(AddrClient)
	if err != nil {
		return nil, err
	}
	a.clientPool, err = core.NewRpcClientPool(clientNIC, flowsPerTier)
	if err != nil {
		return nil, err
	}
	if _, err := a.clientPool.ConnectAll(AddrNginx); err != nil {
		return nil, err
	}

	ok = true
	return a, nil
}

// composePost runs the fan-out: UniqueID, Text, Media, and User in
// parallel; then the post is assembled and stored.
func (a *App) composePost(ctx context.Context, tc *tierClient, cr ComposeRequest) ([]byte, error) {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		postID   uint64
		mentions []string
		urls     []string
		mediaIDs []uint64
		userOK   bool
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	call := func(dst uint32, fn uint16, payload []byte, on func(*wire.Decoder)) {
		wg.Add(1)
		cli, conn := tc.pick(dst)
		if err := cli.CallConnAsyncContext(ctx, conn, fn, payload, func(out []byte, err error) {
			defer wg.Done()
			if err != nil {
				fail(err)
				return
			}
			mu.Lock()
			on(wire.NewDecoder(out))
			mu.Unlock()
		}); err != nil {
			wg.Done()
			fail(err)
		}
	}

	call(AddrUniqueID, FnUniqueID, nil, func(d *wire.Decoder) { postID = d.Uint64() })

	te := wire.NewEncoder(nil)
	te.String16(cr.Text)
	call(AddrText, FnProcessText, te.Bytes(), func(d *wire.Decoder) {
		for n := d.Uint32(); n > 0; n-- {
			mentions = append(mentions, d.String16())
		}
		for n := d.Uint32(); n > 0; n-- {
			urls = append(urls, d.String16())
		}
	})

	me := wire.NewEncoder(nil)
	me.Uint32(uint32(len(cr.MediaIDs)))
	for _, id := range cr.MediaIDs {
		me.Uint64(id)
	}
	call(AddrMedia, FnProcessMedia, me.Bytes(), func(d *wire.Decoder) {
		for n := d.Uint32(); n > 0; n-- {
			mediaIDs = append(mediaIDs, d.Uint64())
		}
	})

	ue := wire.NewEncoder(nil)
	ue.String16(cr.Author)
	call(AddrUser, FnGetUser, ue.Bytes(), func(d *wire.Decoder) { userOK = d.Bool() })

	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if !userOK {
		return nil, fmt.Errorf("social: unknown user %q", cr.Author)
	}

	post := Post{
		ID: postID, Author: cr.Author, Text: cr.Text,
		Mentions: mentions, URLs: urls, MediaIDs: mediaIDs,
	}
	// Blocking store into MICA-backed post storage.
	cli, conn := tc.pick(AddrPostStorage)
	mc := mica.NewClientConn(cli, conn)
	if err := mc.SetContext(ctx, postKey(post.ID), post.encode()); err != nil {
		return nil, err
	}
	a.mu.Lock()
	tl := append([]uint64{post.ID}, a.timelines[post.Author]...)
	if len(tl) > timelineLength {
		tl = tl[:timelineLength]
	}
	a.timelines[post.Author] = tl
	a.mu.Unlock()
	a.Composed.Add(1)
	return post.encode(), nil
}

// ComposePost creates a post through the front-end and returns it.
func (a *App) ComposePost(author, text string, mediaIDs []uint64) (Post, error) {
	return a.ComposePostContext(context.Background(), author, text, mediaIDs)
}

// ComposePostContext is ComposePost under ctx: the deadline budget rides the
// wire into nginx and cascades through every downstream tier.
func (a *App) ComposePostContext(ctx context.Context, author, text string, mediaIDs []uint64) (Post, error) {
	cli := a.clientPool.Client(0)
	out, err := cli.CallContext(ctx, FnComposePost, ComposeRequest{Author: author, Text: text, MediaIDs: mediaIDs}.encode())
	if err != nil {
		return Post{}, err
	}
	return decodePost(out)
}

// ReadUserTimeline returns a user's newest posts through the front-end.
func (a *App) ReadUserTimeline(author string, limit int) ([]Post, error) {
	return a.ReadUserTimelineContext(context.Background(), author, limit)
}

// ReadUserTimelineContext is ReadUserTimeline under ctx.
func (a *App) ReadUserTimelineContext(ctx context.Context, author string, limit int) ([]Post, error) {
	cli := a.clientPool.Client(0)
	e := wire.NewEncoder(nil)
	e.String16(author)
	e.Uint32(uint32(limit))
	out, err := cli.CallContext(ctx, FnReadTimeline, e.Bytes())
	if err != nil {
		return nil, err
	}
	d := wire.NewDecoder(out)
	n := d.Uint32()
	posts := make([]Post, 0, n)
	for ; n > 0; n-- {
		p, err := decodePost(d.Bytes16())
		if err != nil {
			return nil, err
		}
		posts = append(posts, p)
	}
	return posts, d.Err()
}

// ResolveShortURL expands a shortened link.
func (a *App) ResolveShortURL(short string) (string, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	u, ok := a.shortURLs[short]
	return u, ok
}

// Close stops every tier.
func (a *App) Close() {
	for _, p := range a.pools {
		p.Close()
	}
	if a.clientPool != nil {
		a.clientPool.Close()
	}
	for _, s := range a.servers {
		s.Stop()
	}
	for _, n := range a.nics {
		n.Close()
	}
}

func postKey(id uint64) []byte {
	e := wire.NewEncoder(nil)
	e.Uint64(id)
	return append([]byte("post:"), e.Bytes()...)
}

// memcachedClientConn adapts a client+connection to the memcached typed
// client (which uses the default connection otherwise).
func memcachedClientConn(cli *core.RpcClient, conn uint32) *memcached.Client {
	return memcached.NewClientConn(cli, conn)
}
