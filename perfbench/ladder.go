package main

import (
	"sprwl"
	"sprwl/internal/env"
	"sprwl/internal/htm"
	"sprwl/internal/locktable"
	"sprwl/internal/memmodel"
	"sprwl/internal/park"
	"sprwl/internal/readers"
	"sprwl/internal/snzi"
	"sprwl/internal/workload"
)

// rung is one entry of the uncontended layer ladder: fn performs per
// operations of the layer; minus names an earlier rung whose cost is
// subtracted first.
type rung struct {
	name  string
	fn    func()
	per   int
	minus string
	note  string
}

// sink keeps the compiler from discarding the ladder's loads.
var sink uint64

// txLoadLines is how many distinct lines the tx_load rung reads per
// attempt.
const txLoadLines = 32

// ladderKeys is the key space of the ladder's KV: small enough to stay in
// cache, so the rungs time the layers rather than memory.
const ladderKeys = 16_384

func ladderRungs() []rung {
	space := htm.MustNewSpace(htm.Config{Threads: 1, Words: 1 << 16})
	rt := htm.NewRuntime(space, nil)
	ar := memmodel.NewArena(0, space.Size())
	word := ar.AllocLines(1)
	lines := ar.AllocLines(txLoadLines)

	empty := func(env.TxAccessor) {}
	loads := func(tx env.TxAccessor) {
		for i := memmodel.Addr(0); i < txLoadLines; i++ {
			sink += tx.Load(lines + i*memmodel.LineWords)
		}
	}

	flags := readers.NewFlags(space, ar.AllocLines(1), 1)
	z := snzi.New(space, ar.AllocWords(snzi.Words(1)), 1)
	sn := readers.NewSNZI(z)
	bravo := readers.NewBravo(space, ar.AllocWords(readers.BravoWords(readers.DefaultBravoSlots())), readers.DefaultBravoSlots())

	table := park.NewTable(space.Load)
	parkWord := ar.AllocLines(1) // holds 0, so a Park expecting 1 returns at once

	lk := sprwl.MustNew(sprwl.Config{Threads: 1, Words: sprwl.MinWords(1) + 2*memmodel.LineWords})
	lkData := lk.Arena().AllocLines(1)
	h := lk.Handle(0)
	readBody := func(acc sprwl.Accessor) { sink += acc.Load(lkData) }
	writeBody := func(acc sprwl.Accessor) { acc.Store(lkData, sink) }

	ltSpace := htm.MustNewSpace(htm.Config{Threads: 1, Words: locktable.Words(locktable.Config{Shards: kvShards, Threads: 1}) + 2*memmodel.LineWords})
	ltAr := memmodel.NewArena(0, ltSpace.Size())
	lt, err := locktable.New(htm.NewRuntime(ltSpace, nil), ltAr, locktable.Config{Shards: kvShards, Threads: 1}, nil)
	if err != nil {
		panic(err) // a fixed configuration that cannot fail
	}
	ltData := ltAr.AllocLines(1)
	lth := lt.NewHandle(0)
	ltBody := func(acc memmodel.Accessor) { sink += acc.Load(ltData) }

	kvCfg := workload.KVConfig{Table: locktable.Config{Shards: kvShards, Threads: 1}, Items: ladderKeys}
	kvSpace := htm.MustNewSpace(htm.Config{Threads: 1, Words: workload.KVWords(kvCfg)})
	kv, err := workload.SetupKV(htm.NewRuntime(kvSpace, nil), memmodel.NewArena(0, kvSpace.Size()), kvCfg, nil)
	if err != nil {
		panic(err) // a fixed configuration that cannot fail
	}
	c := kv.NewClient(0)
	var key uint64
	nextKey := func() uint64 {
		key = (key + 7919) % ladderKeys
		return key
	}

	return []rung{
		{name: "env.now", per: 1, fn: func() { sink += rt.Now() }, note: "the runtime's clock read"},
		{name: "htm.load", per: 1, fn: func() { sink += space.Load(word) }},
		{name: "htm.attempt", per: 1, fn: func() { space.Attempt(0, env.TxOpts{}, empty) }, note: "empty body"},
		{name: "htm.tx_load", per: txLoadLines, minus: "htm.attempt", fn: func() { space.Attempt(0, env.TxOpts{}, loads) },
			note: "first touch of a line, attempt cost subtracted"},
		{name: "readers.flags", per: 1, fn: func() { flags.Depart(flags.Arrive(0)) }, note: "Arrive+Depart"},
		{name: "readers.snzi", per: 1, fn: func() { sn.Depart(sn.Arrive(0)) }, note: "Arrive+Depart"},
		{name: "readers.bravo", per: 1, fn: func() { bravo.Depart(bravo.Arrive(0)) }, note: "Arrive+Depart"},
		{name: "park.nosleep", per: 1, fn: func() { table.Park(parkWord, 1) }, note: "Park whose word already moved"},
		{name: "park.wake", per: 1, fn: func() { table.Wake(parkWord) }, note: "Wake with no waiters"},
		{name: "core.read", per: 1, fn: func() { h.Read(0, readBody) }, note: "sprwl facade, one load"},
		{name: "core.write", per: 1, fn: func() { h.Write(1, writeBody) }, note: "sprwl facade, one store"},
		{name: "locktable.read", per: 1, fn: func() { lth.Read(nextKey(), 0, ltBody) }, note: "8 shards, one load"},
		{name: "kv.get", per: 1, fn: func() { sink += boolWord(c.Get(nextKey())) }, note: "16384 keys, 8 shards"},
		{name: "kv.put", per: 1, fn: func() { c.Put(nextKey(), sink&0xff) }, note: "update of a present key"},
	}
}

func boolWord(v uint64, ok bool) uint64 {
	if ok {
		return v
	}
	return 0
}
