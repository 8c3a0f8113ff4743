package swiftest

import "github.com/mobilebandwidth/swiftest/internal/ranprofile"

// Profile is a named multi-state RAN scenario: a seeded Markov chain over
// link states (good / fade / handover / sleep / congested), each carrying
// the capacity, RTT, loss and jitter the emulated access link applies while
// the state holds. Leaving the handover state swaps the cell — capacity and
// RTT durably change mid-test. A (profile, seed) pair replays
// byte-identically. See SimulateOptions.Profile and LinkConfig.Profile.
type Profile = ranprofile.Profile

// ProfileState is one link state of a Profile.
type ProfileState = ranprofile.State

// Profiles lists the built-in RAN scenario library, sorted by name:
// 4G/5G static and drive scenarios, congested WiFi, elevators, subways,
// rural LTE and more.
func Profiles() []string { return ranprofile.Names() }

// LookupProfile returns a built-in RAN profile by name.
func LookupProfile(name string) (*Profile, error) { return ranprofile.Get(name) }

// ParseProfiles loads a custom profile library from JSON (the same schema
// as the embedded library: {"version": 1, "profiles": [...]}).
func ParseProfiles(data []byte) ([]*Profile, error) { return ranprofile.Parse(data) }
