package perfbench

import repro.core.DistanceCounter

import scala.collection.mutable.ArrayBuffer

/** One timed call into a layer. `parent` is the index of the enclosing
  * span (−1 for a root); `dist` and `allocBytes` are what the calling
  * thread did inside the span: distance computations counted by the run's
  * [[DistanceCounter]] and bytes allocated.
  */
final case class Span(
    runId: String,
    id: Int,
    parent: Int,
    name: String,
    startNs: Long,
    endNs: Long,
    dist: Long,
    allocBytes: Long,
) {
  def durationNs: Long = endNs - startNs
}

/** Records spans in memory around calls made from the benchmark's own code
  * (nothing inside the program is instrumented). Single-threaded.
  */
final class Tracer(val runId: String, counter: DistanceCounter) {
  private val spans = ArrayBuffer.empty[Span]
  private var open: List[Int] = Nil

  def span[T](name: String)(body: => T): T = {
    val id = spans.length
    val parent = open.headOption.getOrElse(-1)
    spans += null
    open = id :: open
    val d0 = if (counter == null) 0L else counter.count
    val a0 = Measure.threadAllocatedBytes()
    val t0 = System.nanoTime()
    try body
    finally {
      val t1 = System.nanoTime()
      val a1 = Measure.threadAllocatedBytes()
      val d1 = if (counter == null) 0L else counter.count
      spans(id) = Span(runId, id, parent, name, t0, t1, d1 - d0, a1 - a0)
      open = open.tail
    }
  }

  def all: Seq[Span] = spans.toSeq

  def named(name: String): Seq[Span] = spans.iterator.filter(_.name == name).toSeq

  /** Seconds spent in spans called `name`, minus what their child spans cover. */
  def selfSeconds(name: String): Double = {
    val ids = named(name).map(_.id).toSet
    val total = named(name).map(_.durationNs).sum
    val children = spans.iterator.filter(s => ids.contains(s.parent)).map(_.durationNs).sum
    (total - children) / 1e9
  }

  def seconds(name: String): Double = named(name).map(_.durationNs).sum / 1e9

  def dist(name: String): Long = named(name).map(_.dist).sum

  def allocMb(name: String): Double = named(name).map(_.allocBytes).sum / 1e6

  /** One JSON object per span, in start order. */
  def jsonObjects: Seq[String] = spans.toSeq.map { s =>
    s"""{"run": "${s.runId}", "id": ${s.id}, "parent": ${s.parent}, "name": "${s.name}", """ +
      s""""start_ns": ${s.startNs}, "end_ns": ${s.endNs}, "dist": ${s.dist}, "alloc_bytes": ${s.allocBytes}}"""
  }
}
