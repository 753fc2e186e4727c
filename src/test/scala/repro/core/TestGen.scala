package repro.core

import repro.eval.DatasetSpec

import scala.util.Random

/** Shared generators for the randomized correctness suites: small random
  * trajectories plus the distance-function instances under test.
  */
object TestGen {

  def randPoints(r: Random, n: Int, scale: Double = 1.0): IndexedSeq[Point] =
    IndexedSeq.fill(n)(Point(r.nextDouble() * scale, r.nextDouble() * scale))

  /** A random-walk pair (q, d) where q resembles a perturbed subsegment of d
    * about half the time — exercises both "match exists" and "no match"
    * regimes.
    */
  def randPair(seed: Int, mMax: Int = 8, nMax: Int = 20): (IndexedSeq[Point], IndexedSeq[Point]) = {
    val r = new Random(seed)
    val n = 1 + r.nextInt(nMax)
    val d = randPoints(r, n)
    val m = 1 + r.nextInt(mMax)
    val q =
      if (r.nextBoolean() && n >= 2) {
        val len = math.min(m, n)
        val s = r.nextInt(n - len + 1)
        (0 until len).map(k => Point(d(s + k).x + r.nextGaussian() * 0.05,
                                     d(s + k).y + r.nextGaussian() * 0.05))
      } else randPoints(r, m)
    (q, d)
  }

  /** The point-space distance functions exercised by the property suites.
    * All satisfy the triangle-type `del + ins >= sub`; CMAPropertySpec adds
    * models that break it.
    */
  val pointFns: Seq[DistFn[Point]] = Seq(
    Dist.dtw,
    Dist.fd,
    Dist.edr(0.3),
    Dist.erp(Point(0.5, 0.5)),
    wedCustom[Point]("WEDC",
      subF = (a, b) => math.min(a.distTo(b), 1.9),
      delF = _ => 1.2,
      insF = _ => 0.8),
  )

  /** Character-sequence functions (the paper's worked-example setting). */
  val charFns: Seq[DistFn[Char]] = Seq(wedUnit[Char])

  /** Unit-cost WED over any element type with equality semantics — the cost
    * model of the paper's worked examples (Figure 4/5).
    */
  def wedUnit[T]: WedFn[T] = WedFn("WED", new WedCosts[T] {
    def sub(a: T, b: T): Double = if (a == b) 0.0 else 1.0
    def del(a: T): Double = 1.0
    def ins(b: T): Double = 1.0
  })

  /** WED with arbitrary per-element cost tables, to stress the framework
    * with non-uniform (but triangle-respecting) costs.
    */
  def wedCustom[T](nm: String, subF: (T, T) => Double,
                   delF: T => Double, insF: T => Double): WedFn[T] =
    WedFn(nm, new WedCosts[T] {
      def sub(a: T, b: T): Double = subF(a, b)
      def del(a: T): Double = delF(a)
      def ins(b: T): Double = insF(b)
    })

  /** A workload small enough for unit tests: 12 road-network trajectories
    * of 15–30 points and 2 queries.
    */
  val tiny: DatasetSpec = DatasetSpec(
    name = "Tiny", nData = 12,
    gen = TrajGenSpec(lenMin = 15, lenMax = 30, width = 10.0, height = 10.0, stepKm = 0.2),
    qLenMin = 5, qLenMax = 8, nQueries = 2, edrEps = 0.4, seed = 3)

  def assertSameDist(a: Double, b: Double, tol: Double = 1e-9): Unit =
    assert(math.abs(a - b) <= tol || (a.isInfinite && b.isInfinite),
      s"distance mismatch: $a vs $b")
}
