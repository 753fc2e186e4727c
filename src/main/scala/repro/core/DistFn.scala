package repro.core

/** User-definable WED cost model (Koide et al. [12]): substitution, deletion
  * (of a query point) and insertion (of a data point). EDR, ERP, NetEDR,
  * NetERP and SURS are instances (paper §5.3, Appendix D).
  *
  * CMA's `ins`-chain shortcut (Eq. 7) assumes the triangle-type inequality
  * `del(x) + ins(y) >= sub(x, y)`; all shipped instances satisfy it.
  *
  * Costs must be pure: CMA evaluates each `sub` once per DP cell, `ins` once
  * per data point and `del` once per query point, and reuses the values.
  */
trait WedCosts[T] extends Serializable {
  def sub(a: T, b: T): Double
  def del(a: T): Double
  def ins(b: T): Double
}

/** A trajectory distance function in the paper's general conversion framework
  * (Definition 5). Three families share the CMA machinery but differ in the
  * recurrence used for `C[i][j]`:
  *   - [[WedFn]]     — Eq. 7 (insert/delete/substitute with explicit costs)
  *   - [[DtwFn]]     — Eq. 8 (delete/insert cost = substitution with the match)
  *   - [[FrechetFn]] — Eq. 9 (bottleneck max instead of sum)
  */
sealed trait DistFn[T] extends Serializable { def name: String }

final case class WedFn[T](name: String, costs: WedCosts[T]) extends DistFn[T]

final case class DtwFn[T](name: String, subFn: (T, T) => Double) extends DistFn[T]

final case class FrechetFn[T](name: String, subFn: (T, T) => Double) extends DistFn[T]

/** Euclidean point cost `a.distTo(b)`, the sub-cost of DTW and FD. A named
  * object, so `repro.pruning.KPF` can recognise it by type and index the
  * data points for its lower bound.
  */
case object Euclid extends ((Point, Point) => Double) {
  def apply(a: Point, b: Point): Double = a.distTo(b)
}

/** EDR costs (Chen et al. [5]): unit indel costs, substitution free iff the
  * points are within `eps`.
  */
final case class EdrCosts(eps: Double) extends WedCosts[Point] {
  def sub(a: Point, b: Point): Double = if (a.distTo(b) <= eps) 0.0 else 1.0
  def del(a: Point): Double = 1.0
  def ins(b: Point): Double = 1.0
}

/** ERP costs (Chen & Ng [4]): Euclidean substitution, indel cost = distance
  * to a fixed reference point `g` (e.g. the region centre).
  */
final case class ErpCosts(g: Point) extends WedCosts[Point] {
  def sub(a: Point, b: Point): Double = a.distTo(b)
  def del(a: Point): Double = a.distTo(g)
  def ins(b: Point): Double = b.distTo(g)
}

/** Standard distance-function instances over planar [[Point]]s. */
object Dist {

  /** Dynamic time warping (Yi et al. [29]) with Euclidean point costs. */
  val dtw: DtwFn[Point] = DtwFn("DTW", Euclid)

  /** Discrete Fréchet distance (Alt & Godau [2]). */
  val fd: FrechetFn[Point] = FrechetFn("FD", Euclid)

  /** Edit distance on real sequences (Chen et al. [5]). */
  def edr(eps: Double): WedFn[Point] = WedFn("EDR", EdrCosts(eps))

  /** Edit distance with real penalty (Chen & Ng [4]). */
  def erp(g: Point): WedFn[Point] = WedFn("ERP", ErpCosts(g))

  /** Unit-cost WED over any element type with equality semantics — the cost
    * model of the paper's worked examples (Figure 4/5).
    */
  def wedUnit[T]: WedFn[T] = WedFn("WED", new WedCosts[T] {
    def sub(a: T, b: T): Double = if (a == b) 0.0 else 1.0
    def del(a: T): Double = 1.0
    def ins(b: T): Double = 1.0
  })

  /** WED with arbitrary per-element cost tables — used by tests to stress the
    * framework with non-uniform (but triangle-respecting) costs.
    */
  def wedCustom[T](nm: String, subF: (T, T) => Double,
                   delF: T => Double, insF: T => Double): WedFn[T] =
    WedFn(nm, new WedCosts[T] {
      def sub(a: T, b: T): Double = subF(a, b)
      def del(a: T): Double = delF(a)
      def ins(b: T): Double = insF(b)
    })
}
