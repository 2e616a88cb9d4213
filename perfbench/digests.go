package main

type digestKey struct {
	workload string
	seed     uint64
}

// committedDigests are the checked-block digests at the default seed.
// They change only when a change to the program changes what it
// simulates; a simulator-only change must leave them as they are.
var committedDigests = map[digestKey]string{
	{"overlay-dos", defaultSeed}:       "3a9c96f3c8241e93",
	{"scale", defaultSeed}:             "4efc53849a6ea29a",
	{"reconfig-sync", defaultSeed}:     "4c500f3876e570b3",
	{"reconfig-reliable", defaultSeed}: "efc00a6f0691b892",
}
