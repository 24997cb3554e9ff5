let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Print floats so that they re-lex as floats: always include a dot or an
   exponent. *)
let float_literal f =
  let s = Rr_util.Float_text.g17 f in
  if String.contains s '.' || String.contains s 'e' || String.contains s 'n' then s
  else s ^ ".0"

let rec print_pairs buf indent pairs =
  List.iter
    (fun (key, value) ->
      Buffer.add_string buf (String.make indent ' ');
      Buffer.add_string buf key;
      Buffer.add_char buf ' ';
      print_value buf indent value;
      Buffer.add_char buf '\n')
    pairs

and print_value buf indent = function
  | Ast.Int i -> Buffer.add_string buf (string_of_int i)
  | Ast.Float f -> Buffer.add_string buf (float_literal f)
  | Ast.String s ->
    Buffer.add_char buf '"';
    Buffer.add_string buf (escape s);
    Buffer.add_char buf '"'
  | Ast.List pairs ->
    Buffer.add_string buf "[\n";
    print_pairs buf (indent + 2) pairs;
    Buffer.add_string buf (String.make indent ' ');
    Buffer.add_char buf ']'

let to_string doc =
  let buf = Buffer.create 1024 in
  print_pairs buf 0 doc;
  Buffer.contents buf

let to_file path doc =
  let oc = open_out_bin path in
  output_string oc (to_string doc);
  close_out oc
