package harvest

// RechargeEuler is the seed's fixed-timestep off-time integrator,
// retained as the oracle the analytic engine is validated against (and
// as the fallback for profiles that implement only Profile).
//
// step is the integration step in seconds (the seed used 100 µs);
// horizon is the give-up bound in accumulated off-seconds (the seed
// used 3600 s). The horizon is exactly the misfeature the analytic
// engine removes: a source that is net-charging but needs longer than
// the horizon — e.g. a square wave with a multi-hour period — is
// reported here as dead. Like Recharge, a successful integration
// advances the capacitor's clock, stored energy and harvest meter;
// hitting the horizon leaves whatever partial progress was integrated.
func (c *Capacitor) RechargeEuler(step, horizon float64) (float64, bool) {
	c.closeBatch()
	target := c.energyAt(c.cfg.VOn)
	leak := c.cfg.LeakageW
	var off float64
	for c.energyJ < target {
		p := c.profile.PowerAt(c.nowSec)
		c.energyJ += (p - leak) * step
		if c.energyJ < 0 {
			c.energyJ = 0
		}
		if c.energyJ > c.maxJ {
			c.energyJ = c.maxJ
		}
		c.cycleHarvestJ += p * step
		c.nowSec += step
		off += step
		if off > horizon {
			return off, false
		}
	}
	// Fold the finished cycle's harvest (discharge plus recharge) into
	// the lifetime meter, mirroring the analytic path.
	c.lastCycleJ = c.cycleHarvestJ
	c.harvestedJ += c.cycleHarvestJ
	c.cycleHarvestJ = 0
	return off, true
}
