package repro.baselines.rl

import scala.util.Random

/** Minimal tabular Q-learning substrate: discrete states, epsilon-greedy
  * behaviour policy during training, greedy evaluation. Stands in for the
  * DQN used by RLS/RLS-Skip in Wang et al. [26] (see DESIGN.md §5 — the
  * interface and qualitative behaviour are what matter for this paper's
  * comparison, not the function approximator).
  */
final class QTable(val nStates: Int, val nActions: Int) extends Serializable {
  val q: Array[Array[Double]] = Array.ofDim[Double](nStates, nActions)

  def bestAction(s: Int): Int = {
    val row = q(s)
    var b = 0; var i = 1
    while (i < nActions) { if (row(i) > row(b)) b = i; i += 1 }
    b
  }

  def choose(s: Int, eps: Double, r: Random): Int =
    if (r.nextDouble() < eps) r.nextInt(nActions) else bestAction(s)

  /** Standard Q-learning backup; `terminal` drops the bootstrap term. */
  def update(s: Int, a: Int, reward: Double, s2: Int, terminal: Boolean): Unit = {
    val target =
      if (terminal) reward
      else reward + QTable.Gamma * q(s2)(bestAction(s2))
    q(s)(a) += QTable.Alpha * (target - q(s)(a))
  }
}

object QTable {
  private final val Alpha = 0.2  // learning rate
  private final val Gamma = 0.95 // discount
}
