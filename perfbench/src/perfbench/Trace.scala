package perfbench

import java.io.{File, PrintWriter}
import scala.collection.mutable.ArrayBuffer

/** One timed interval at a layer boundary. `parent` is the index of the
  * enclosing span in the same trace (-1 for a query's root span), `qid` the
  * measured query it belongs to, `n` the work it covered (DP cells for a CMA
  * call, trajectories for a point materialisation) and `tag` the distance
  * function where that matters.
  */
final case class Span(name: String, qid: Int, parent: Int,
                      startNs: Long, endNs: Long, n: Long, tag: String) {
  def durNs: Long = endNs - startNs
}

/** In-memory span recorder. Spans are opened only by the benchmark, around
  * its calls into the program; nothing inside the program is instrumented.
  * `Trace.Off` records nothing, so untraced runs pay one virtual call per
  * boundary.
  */
class Trace {
  val spans = new ArrayBuffer[Span](1 << 16)
  private var stack: List[Int] = Nil
  private var qid = -1

  def on: Boolean = true

  def currentQuery: Int = qid

  /** Root span of measured query `id`. */
  def query[A](id: Int)(body: => A): A = { qid = id; span("query")(body) }

  def span[A](name: String, n: Long = 0L, tag: String = "")(body: => A): A = {
    val idx = spans.length
    spans += null
    val parent = stack.headOption.getOrElse(-1)
    stack = idx :: stack
    val t0 = System.nanoTime()
    try body
    finally {
      val t1 = System.nanoTime()
      stack = stack.tail
      spans(idx) = Span(name, qid, parent, t0, t1, n, tag)
    }
  }

  def named(name: String): Iterator[Span] = spans.iterator.filter(_.name == name)

  /** Total duration in ns and total work of the spans called `name`. */
  def total(name: String, tag: String = null): (Long, Long) =
    named(name).filter(s => tag == null || s.tag == tag)
      .foldLeft((0L, 0L)) { case ((t, n), s) => (t + s.durNs, n + s.n) }

  /** Per-query sums of the `n` field of spans called `name`, for query ids
    * below `upTo` — an exact count that does not depend on timing.
    */
  def workBelow(name: String, upTo: Int): Long =
    named(name).filter(_.qid < upTo).map(_.n).sum

  def countBelow(name: String, upTo: Int): Long =
    named(name).count(_.qid < upTo).toLong

  def write(file: File): Unit = {
    file.getParentFile.mkdirs()
    val w = new PrintWriter(file, "UTF-8")
    try spans.zipWithIndex.foreach { case (s, i) =>
      w.println(s"""{"id":$i,"name":"${s.name}","qid":${s.qid},"parent":${s.parent},""" +
        s""""start_ns":${s.startNs},"end_ns":${s.endNs},"n":${s.n},"tag":"${s.tag}"}""")
    } finally w.close()
  }
}

object Trace {
  val Off: Trace = new Trace {
    override def on: Boolean = false
    override def query[A](id: Int)(body: => A): A = body
    override def span[A](name: String, n: Long, tag: String)(body: => A): A = body
  }
}
