package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** The incremental column machinery every O(mn) scan is built on: extending
  * point-by-point must equal computing the full distance from scratch at
  * every prefix, and reset must restore the empty state.
  */
class PrefixDPSpec extends AnyFunSuite {

  for (fn <- TestGen.pointFns; seed <- 0 until 10)
    test(s"extend() matches from-scratch distances at every prefix [${fn.name} seed=$seed]") {
      val (q, d) = TestGen.randPair(seed * 17 + 3)
      val dp = PrefixDP(q, fn)
      for (j <- 1 to d.length) {
        val got = dp.extend(d(j - 1))
        val want = ReferenceDist.dist(q, d.take(j), fn)
        TestGen.assertSameDist(got, want)
        assert(dp.len == j)
      }
    }

  for (fn <- TestGen.pointFns)
    test(s"reset() restores the empty-segment state [${fn.name}]") {
      val (q, d) = TestGen.randPair(5)
      val dp = PrefixDP(q, fn)
      d.foreach(dp.extend)
      dp.reset()
      assert(dp.len == 0)
      fn match {
        case WedFn(_, c) =>
          // WED of q against the empty segment = delete everything.
          TestGen.assertSameDist(dp.dist, q.map(c.del).sum)
        case _ =>
          assert(dp.dist.isPosInfinity)
      }
      // After reset, a second pass gives identical results.
      val first = d.map { p => dp.extend(p) }
      dp.reset()
      val second = d.map { p => dp.extend(p) }
      assert(first == second)
    }
}
