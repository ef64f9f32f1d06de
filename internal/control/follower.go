package control

import (
	"repro/internal/geom"
	"repro/internal/planning"
)

// FollowerConfig tunes the trajectory-tracking velocity controller.
type FollowerConfig struct {
	// Kp is the position-error feedback gain (1/s).
	Kp float64
	// MaxSpeed caps commanded velocity.
	MaxSpeed float64
}

// DefaultFollowerConfig matches the paper's cruise behavior.
func DefaultFollowerConfig() FollowerConfig {
	return FollowerConfig{Kp: 1.6, MaxSpeed: 6}
}

// Follower converts a timed trajectory plus the current estimate into
// velocity commands: feed-forward trajectory velocity plus proportional
// position-error feedback. Combined with the vehicle's first-order lag,
// this reproduces the corner-cutting/overshoot behavior that causes the
// paper's V3 sharp-corner failures.
type Follower struct {
	Cfg FollowerConfig

	traj   planning.Trajectory
	t      float64
	active bool
}

// NewFollower returns a follower with the given config.
func NewFollower(cfg FollowerConfig) *Follower {
	if cfg.Kp <= 0 {
		cfg = DefaultFollowerConfig()
	}
	return &Follower{Cfg: cfg}
}

// SetTrajectory starts following a new trajectory from its beginning.
func (f *Follower) SetTrajectory(tr planning.Trajectory) {
	f.traj = tr
	f.t = 0
	f.active = len(tr.Points) > 0
}

// Active reports whether a trajectory is loaded and not yet finished.
func (f *Follower) Active() bool {
	return f.active && f.t <= f.traj.Duration()+2
}

// Done reports whether the follower has consumed its trajectory and the
// vehicle is near the final waypoint.
func (f *Follower) Done(est Estimate, tol float64) bool {
	if !f.active {
		return true
	}
	return f.t >= f.traj.Duration() && est.Pos.Dist(f.traj.End()) <= tol
}

// Command advances trajectory time by dt and returns the velocity command
// for the current estimate.
func (f *Follower) Command(dt float64, est Estimate) geom.Vec3 {
	if !f.active {
		return geom.Vec3{}
	}
	f.t += dt
	setpoint, ff := f.traj.Sample(f.t)
	err := setpoint.Sub(est.Pos)
	cmd := ff.Add(err.Scale(f.Cfg.Kp))
	return cmd.ClampLen(f.Cfg.MaxSpeed)
}

// Target returns the current position setpoint.
func (f *Follower) Target() geom.Vec3 {
	p, _ := f.traj.Sample(f.t)
	return p
}

// End returns the trajectory's final waypoint.
func (f *Follower) End() geom.Vec3 { return f.traj.End() }

// Stop clears the trajectory; Command returns zero (hover) afterwards.
func (f *Follower) Stop() {
	f.active = false
}

// HoverCommand returns a velocity command that station-keeps at target.
func HoverCommand(est Estimate, target geom.Vec3, kp, maxSpeed float64) geom.Vec3 {
	return target.Sub(est.Pos).Scale(kp).ClampLen(maxSpeed)
}
