package perfbench

import java.io._
import java.security.MessageDigest

import repro.baselines.Lloyd

/** The plain Lloyd run every timed rep is checked against, from the same
  * initial centroids. `lloydS` is the wall time of the Lloyd run when it was
  * computed (a cache hit keeps the original figure).
  */
final case class Reference(centroids: Array[Array[Double]], assignments: Array[Int], lloydS: Double) {

  /** Cluster sizes of the reference assignment. */
  lazy val sizes: Array[Long] = {
    val out = new Array[Long](centroids.length)
    assignments.foreach(a => out(a) += 1)
    out
  }

  def matches(cs: Array[Array[Double]], as: Array[Int]): Boolean =
    java.util.Arrays.equals(as, assignments) && Reference.close(cs, centroids)

  def matchesWeights(cs: Array[Array[Double]], weights: Array[Long]): Boolean =
    java.util.Arrays.equals(weights, sizes) && Reference.close(cs, centroids)
}

object Reference {

  /** Centroids agree when, per centroid, the largest coordinate difference
    * is within 1e-9 of the centroid's largest coordinate magnitude (at
    * least 1). Exact summation order differs between the accelerators and
    * Lloyd, so bitwise equality is not expected.
    */
  val RelTol = 1e-9

  def close(a: Array[Array[Double]], b: Array[Array[Double]]): Boolean =
    a.length == b.length && a.indices.forall { j =>
      a(j).length == b(j).length && {
        var diff = 0.0; var scale = 1.0; var i = 0
        while (i < b(j).length) {
          diff = math.max(diff, math.abs(a(j)(i) - b(j)(i)))
          scale = math.max(scale, math.abs(b(j)(i)))
          i += 1
        }
        diff <= RelTol * scale
      }
    }

  /** SHA-256 over the data, the initial centroids and maxIters. */
  def digest(data: Array[Array[Double]], init: Array[Array[Double]], maxIters: Int): String = {
    val md = MessageDigest.getInstance("SHA-256")
    val buf = java.nio.ByteBuffer.allocate(8)
    def long(v: Long): Unit = { buf.clear(); buf.putLong(v); md.update(buf.array()) }
    def rows(rs: Array[Array[Double]]): Unit = {
      long(rs.length.toLong)
      rs.foreach { r => long(r.length.toLong); r.foreach(x => long(java.lang.Double.doubleToLongBits(x))) }
    }
    rows(data); rows(init); long(maxIters.toLong)
    md.digest().map(b => f"${b & 0xff}%02x").mkString
  }

  def compute(data: Array[Array[Double]], init: Array[Array[Double]], maxIters: Int): Reference = {
    val (r, s) = Measure.timed(new Lloyd().run(data, init.length, maxIters, init))
    Reference(r.centroids, r.assignments, s)
  }

  /** The reference for (data, init, maxIters), from `dir` when a file for
    * the same digest is there, else computed and stored. Returns the
    * reference and whether it came from the cache.
    */
  def getOrCompute(
      dir: File,
      data: Array[Array[Double]],
      init: Array[Array[Double]],
      maxIters: Int,
  ): (Reference, Boolean) = {
    val key = digest(data, init, maxIters)
    val file = new File(dir, s"$key.ref")
    load(file, key) match {
      case Some(r) => (r, true)
      case None =>
        val r = compute(data, init, maxIters)
        store(file, key, r)
        (r, false)
    }
  }

  private def load(file: File, key: String): Option[Reference] =
    if (!file.isFile) None
    else {
      val in = new DataInputStream(new BufferedInputStream(new FileInputStream(file)))
      try {
        if (in.readUTF() != key) None
        else {
          val lloydS = in.readDouble()
          val k = in.readInt(); val d = in.readInt()
          val cs = Array.fill(k)(Array.fill(d)(in.readDouble()))
          val n = in.readInt()
          Some(Reference(cs, Array.fill(n)(in.readInt()), lloydS))
        }
      } catch { case _: IOException => None }
      finally in.close()
    }

  private def store(file: File, key: String, r: Reference): Unit = {
    file.getParentFile.mkdirs()
    val tmp = new File(file.getParentFile, file.getName + ".tmp")
    val out = new DataOutputStream(new BufferedOutputStream(new FileOutputStream(tmp)))
    try {
      out.writeUTF(key)
      out.writeDouble(r.lloydS)
      out.writeInt(r.centroids.length); out.writeInt(r.centroids(0).length)
      r.centroids.foreach(_.foreach(out.writeDouble))
      out.writeInt(r.assignments.length)
      r.assignments.foreach(out.writeInt)
    } finally out.close()
    if (!tmp.renameTo(file)) throw new IOException(s"cannot move $tmp to $file")
  }
}
