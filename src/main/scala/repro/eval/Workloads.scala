package repro.eval

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.core._
import repro.network.NetTrajGen

import scala.util.Random

/** Scaled-down synthetic substitutes for the paper's three real datasets
  * (DESIGN.md §5). Bounding boxes match the cities; trajectory counts and
  * lengths are scaled so the whole evaluation runs at laptop scale while
  * preserving the (m, n) regimes that drive the algorithms' relative
  * behaviour:
  *   Porto   — many short trajectories (paper avg length 67)
  *   Xi'an   — medium lengths (paper avg 401)
  *   Beijing — few very long trajectories (paper avg 1705)
  */
final case class DatasetSpec(name: String, nData: Int, gen: TrajGenSpec,
                             qLenMin: Int, qLenMax: Int, nQueries: Int,
                             edrEps: Double, seed: Long) {
  def erpCenter: Point = Point(gen.width / 2, gen.height / 2)

  /** Trajectory `id` of this workload: road-constrained (shared corridors,
    * like taxi data — DESIGN.md §5).
    */
  def traj(id: Long): Traj = NetTrajGen.gen(id, gen, seed)
}

object Workloads {

  val porto: DatasetSpec = DatasetSpec(
    name = "Porto", nData = 120,
    gen = TrajGenSpec(lenMin = 30, lenMax = 100, width = 23.4, height = 24.7, stepKm = 0.12),
    qLenMin = 8, qLenMax = 16, nQueries = 4, edrEps = 0.24, seed = 11)

  val xian: DatasetSpec = DatasetSpec(
    name = "Xi'an", nData = 60,
    gen = TrajGenSpec(lenMin = 150, lenMax = 260, width = 33.4, height = 23.5, stepKm = 0.05),
    qLenMin = 30, qLenMax = 50, nQueries = 4, edrEps = 0.04, seed = 12)

  val beijing: DatasetSpec = DatasetSpec(
    name = "Beijing", nData = 25,
    gen = TrajGenSpec(lenMin = 2000, lenMax = 3000, width = 49.8, height = 42.1, stepKm = 0.20),
    qLenMin = 100, qLenMax = 200, nQueries = 2, edrEps = 0.40, seed = 13)

  /** Distance functions evaluated in Tables 2/3 for a dataset. */
  def distFns(spec: DatasetSpec): Seq[DistFn[Point]] =
    Seq(Dist.dtw, Dist.edr(spec.edrEps), Dist.erp(spec.erpCenter), Dist.fd)

  /** Data trajectories as a Spark Dataset (ids `0 until nData`). */
  def data(spark: SparkSession, spec: DatasetSpec): Dataset[Traj] = {
    import spark.implicits._
    spark.range(spec.nData).map(id => spec.traj(id))
  }

  /** Driver-side copy of the data trajectories (queries and small oracles). */
  def dataLocal(spec: DatasetSpec): Array[Traj] =
    Array.tabulate(spec.nData)(i => spec.traj(i.toLong))

  /** Query trajectories, as in §6.1: drawn from held-out trajectories of the
    * same generator (ids >= nData), taking a random subsegment of the query
    * length and perturbing it (plus occasional GPS-glitch outliers so EDR
    * optima stay positive — DESIGN.md §5).
    */
  def queries(spec: DatasetSpec): Array[Array[Point]] = {
    val r = new Random(spec.seed * 31 + 5)
    Array.tabulate(spec.nQueries)(k => perturbedWindow(spec, spec.traj((spec.nData + k).toLong).points, r))
  }

  /** Extra (query, data) pairs for RLS training, disjoint from evaluation
    * data (ids >= nData + nQueries).
    */
  def trainingPairs(spec: DatasetSpec, nPairs: Int): Seq[(IndexedSeq[Point], IndexedSeq[Point])] = {
    val r = new Random(spec.seed * 131 + 7)
    (0 until nPairs).map { k =>
      val d = spec.traj((spec.nData + spec.nQueries + 2 * k).toLong).points
      val q = perturbedWindow(spec, spec.traj((spec.nData + spec.nQueries + 2 * k + 1).toLong).points, r)
      (q.toIndexedSeq, d.toIndexedSeq)
    }
  }

  /** A random query-length subsegment of `src`, perturbed by `perturb`. */
  private def perturbedWindow(spec: DatasetSpec, src: Array[Point], r: Random): Array[Point] = {
    val qLen = math.min(spec.qLenMin + r.nextInt(spec.qLenMax - spec.qLenMin + 1), src.length)
    val start = r.nextInt(src.length - qLen + 1)
    perturb(src.slice(start, start + qLen), sigma = spec.gen.stepKm * 0.25,
      outlierProb = 0.12, outlierDist = spec.gen.stepKm * 6.0, r = r)
  }

  /** Perturb `pts` with Gaussian noise of std `sigma`, replacing each point
    * with probability `outlierProb` by a point displaced by `outlierDist`
    * (a synthetic GPS glitch — keeps EDR optima strictly positive).
    */
  private[eval] def perturb(pts: Array[Point], sigma: Double,
                            outlierProb: Double, outlierDist: Double, r: Random): Array[Point] =
    pts.map { p =>
      if (r.nextDouble() < outlierProb) {
        val a = r.nextDouble() * 2 * math.Pi
        Point(p.x + outlierDist * math.cos(a), p.y + outlierDist * math.sin(a))
      } else Point(p.x + r.nextGaussian() * sigma, p.y + r.nextGaussian() * sigma)
    }
}
