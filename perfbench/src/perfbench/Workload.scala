package perfbench

import scala.collection.immutable.ArraySeq

/** One benchmark workload. Its inputs come from the program's own generators
  * under the benchmark seed; measured query `i` answers pair `k = i % pairs`:
  * query `k` under distance function `k % fns`. Consecutive queries cycle
  * through the distance functions, every pair is a distinct query, and each
  * function gets `pairs / fns` of them.
  */
trait Workload {

  /** Whether answers must equal the unpruned reference (a mismatch fails). */
  def exact: Boolean

  def pairs: Int

  /** One full set-up: generate inputs, build caches, warm up. Replaces the
    * state of any earlier set-up, so repeated set-ups each do all the work.
    */
  def setup(): Unit

  /** Answers pair `k` through the path under test: answer distances,
    * ascending (empty when the pipeline returns no answer).
    */
  def run(k: Int, tr: Trace): Array[Double]

  /** The unpruned answer of pair `k`, computed by a path that avoids the
    * layer under test. Called after every timed phase, from several threads.
    */
  def reference(k: Int): Array[Double]

  /** Per-layer metrics: from the spans and counts of a traced phase of
    * `queries` queries, and from replays of single layer calls.
    */
  def layers(tr: Trace, queries: Int): Map[String, Double]

  /** Digest of the generated inputs, to show a seed changes them. */
  def inputsDigest: String

  def close(): Unit = ()
}

object Workload {

  /** Queries whose counts are reported: the first `Counted` traced queries,
    * so every count covers the same inputs on every same-seed run.
    */
  val Counted = 100

  /** Pairs answered by each set-up's warm-up. */
  val WarmupPairs = 8

  def wrap[T](a: Array[T]): IndexedSeq[T] = ArraySeq.unsafeWrapArray(a)

  /** Median of `reps` timings of `body`, in ns per unit of `units` work. */
  def replay(reps: Int, units: Long)(body: => Unit): Double = {
    val ts = Array.fill(reps) {
      val t0 = System.nanoTime(); body; (System.nanoTime() - t0).toDouble / units
    }
    Stats.median(ts)
  }

  def digest(parts: Iterator[Array[Double]]): String = {
    var h = 1125899906842597L
    parts.foreach(a => h = 31 * h + java.util.Arrays.hashCode(a))
    f"$h%016x"
  }

  def apply(name: String, seed: Long, slots: Int): Workload = name match {
    case "porto-heuristic" => PrunedSearch.portoHeuristic(seed)
    case "beijing-exact"   => PrunedSearch.beijingExact(seed)
    // One core stays free for the client thread, which submits each job and
    // collects its result: with a task slot on every core the run-to-run
    // spread of xian-spark's latency doubled.
    case "xian-spark"      => new SparkTopK(seed, math.max(1, slots - 1))
    case "road-net"        => new RoadNet(seed)
    case other             => throw new IllegalArgumentException(s"unknown workload $other")
  }

  val names: Seq[String] = Seq("porto-heuristic", "beijing-exact", "xian-spark", "road-net")
}

object Stats {
  def median(xs: Array[Double]): Double = quantile(xs, 0.5)

  /** Linear-interpolation quantile of `xs`. */
  def quantile(xs: Array[Double], p: Double): Double = {
    require(xs.nonEmpty, "quantile of no samples")
    val s = xs.sorted
    val pos = p * (s.length - 1)
    val lo = math.floor(pos).toInt
    val hi = math.min(lo + 1, s.length - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }
}
